//go:build race

package core

// raceEnabled reports whether the race detector is active. Under it,
// sync.Pool randomly drops Put items to expose races, so zero-alloc
// pins on pooled paths are meaningless and skip themselves.
const raceEnabled = true
