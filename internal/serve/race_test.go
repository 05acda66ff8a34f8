//go:build race

package serve

// raceEnabled lets allocation-count tests skip under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
