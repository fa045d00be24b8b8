package main

import (
	"crypto/sha256"
	"time"
)

// On a shared host the whole machine speeds up and slows down with other
// tenants' load, by 10-20% over minutes: longer than a run, so no
// statistic taken inside one run removes it. A fixed kernel that uses
// none of the simulator's code, timed before each pass, slows down with
// it, so pass and trial times are reported at the reference host's speed:
// scaled by referenceProbe over the run's fastest probe. On the reference
// host this cut the run-to-run spread of the fastest pass over ten seeds
// from 11% to 2% in its noisiest stretch.

// referenceProbe is speedProbe's fastest time on the reference host, a
// 2-CPU x86-64 VM (Intel Xeon), with Go 1.24.
const referenceProbe = 36 * time.Millisecond

// probeBuf is what speedProbe hashes; it fits in a per-core L2 cache.
var probeBuf = make([]byte, 256<<10)

// speedProbe times 200 SHA-256 digests of probeBuf.
func speedProbe() time.Duration {
	start := time.Now()
	for i := 0; i < 200; i++ {
		s := sha256.Sum256(probeBuf)
		probeBuf[0] = s[0]
	}
	return time.Since(start)
}
