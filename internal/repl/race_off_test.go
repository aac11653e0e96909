//go:build !race

package repl

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
