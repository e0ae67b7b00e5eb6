//go:build !race

package core

const raceEnabled = false
