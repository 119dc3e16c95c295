//go:build !race

package nettrans

// raceEnabled mirrors race_on_test.go for regular builds.
const raceEnabled = false
