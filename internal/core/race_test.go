//go:build race

package core

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
