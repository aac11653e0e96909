//go:build !race

package ft

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
