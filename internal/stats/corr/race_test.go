//go:build race

package corr

// raceEnabled reports a -race build, whose sync.Pool drops items on
// purpose: the warm-call allocation tests skip there.
const raceEnabled = true
