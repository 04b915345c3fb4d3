//go:build race

package runtime

// raceEnabled gates allocation-count tests: the race detector's
// instrumentation allocates on its own, making AllocsPerRun meaningless
// under -race.
const raceEnabled = true
