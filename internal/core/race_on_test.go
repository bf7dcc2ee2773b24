//go:build race

package core

// raceEnabled lets the side-by-side suite shrink its repeats and models
// under the race detector, fifty times slower on the kernels' scalar loops.
const raceEnabled = true
