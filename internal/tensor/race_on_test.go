//go:build race

package tensor

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
