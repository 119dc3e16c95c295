//go:build !race

package bufpool

// raceEnabled mirrors race_on_test.go for regular builds.
const raceEnabled = false
