//go:build !race

package cloudsim

// schedLoadJobs sizes the fair-share load test: full scale in plain runs,
// scaled down under the race detector (see race_on_test.go), whose memory
// and scheduling overhead would stretch 200 concurrent trainings past CI
// budgets without sharpening the interleaving coverage.
const schedLoadJobs = 200

const raceEnabled = false
