//go:build race

package tensor

// raceEnabled lets the widest bit-identity tables trim their row counts
// under the race detector, where the pure-Go kernels run ≈100× slower.
const raceEnabled = true
