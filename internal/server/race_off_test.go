//go:build !race

package server

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
