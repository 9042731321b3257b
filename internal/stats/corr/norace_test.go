//go:build !race

package corr

const raceEnabled = false
