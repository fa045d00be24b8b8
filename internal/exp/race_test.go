//go:build race

package exp

// raceEnabled reports a race-detector build. Its sync.Pool drops items
// at random — fmt's printer cache among them — so a trial's set-up
// allocation count is not exact under -race.
const raceEnabled = true
