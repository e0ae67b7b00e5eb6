//go:build race

package lsm

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
