//go:build race

package experiment

// raceEnabled reports whether the race detector is active: it inflates
// every allocation, so heap-size pins skip themselves under it.
const raceEnabled = true
