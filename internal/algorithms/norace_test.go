//go:build !race

package algorithms

const raceEnabled = false
