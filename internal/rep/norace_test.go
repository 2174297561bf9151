//go:build !race

package rep

const raceEnabled = false
