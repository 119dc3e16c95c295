//go:build !race

package experiment

// raceEnabled mirrors race_on_test.go for regular builds.
const raceEnabled = false
