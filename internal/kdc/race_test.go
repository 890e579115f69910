//go:build race

package kdc

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random quarter of Puts, so pooled allocation counts are not meaningful.
const raceEnabled = true
