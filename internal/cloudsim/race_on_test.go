//go:build race

package cloudsim

// schedLoadJobs under -race: enough jobs for several full ring rotations
// per tenant while keeping the instrumented run inside CI budgets.
const schedLoadJobs = 64

// raceEnabled lets the byte-budget tests skip under the race detector,
// whose shadow allocations are counted in MemStats.
const raceEnabled = true
