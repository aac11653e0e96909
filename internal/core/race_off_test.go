//go:build !race

package core

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
