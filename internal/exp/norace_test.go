//go:build !race

package exp

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
