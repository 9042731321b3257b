//go:build !race

package corrsim

const raceEnabled = false
