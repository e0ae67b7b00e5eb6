//go:build !race

package lsm

const raceEnabled = false
