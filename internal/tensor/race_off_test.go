//go:build !race

package tensor

// raceEnabled reports whether the race detector instruments this build.
// Allocation floors over pooled storage are meaningless under it: sync.Pool
// drops a quarter of what it is handed.
const raceEnabled = false
