//go:build race

package bufpool

// raceEnabled reports whether the race detector is active. Under it,
// sync.Pool randomly drops Put items to expose races, so allocation
// pins on pooled paths are meaningless and skip themselves.
const raceEnabled = true
