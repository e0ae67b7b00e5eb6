//go:build race

package query

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
