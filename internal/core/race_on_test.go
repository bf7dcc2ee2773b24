//go:build race

package core

// raceEnabled lets pool-miss pins skip under the race detector, where
// sync.Pool deliberately drops puts at random.
const raceEnabled = true
