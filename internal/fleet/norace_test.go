//go:build !race

package fleet

// raceEnabled reports a -race build, whose instrumentation allocates on
// paths that otherwise do not.
const raceEnabled = false
