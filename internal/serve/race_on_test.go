//go:build race

package serve

// raceEnabled lets the full-ranking pin drop its wall-clock bound under the
// race detector, which slows the sort many times over.
const raceEnabled = true
