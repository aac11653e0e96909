//go:build !race

package view

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
