//go:build !race

package core

// raceEnabled mirrors race_on_test.go for regular builds.
const raceEnabled = false
