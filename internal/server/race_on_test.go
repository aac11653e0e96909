//go:build race

package server

// raceEnabled reports whether the race detector is instrumenting this build.
// Allocation-count assertions are skipped under -race: the detector adds
// its own per-op allocations, which are not the regression being guarded.
const raceEnabled = true
