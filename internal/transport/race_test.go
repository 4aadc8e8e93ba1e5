//go:build race

package transport

// raceEnabled reports a race-detector build, whose allocation counts are not
// the program's: sync.Pool drops a random share of what is put back.
const raceEnabled = true
