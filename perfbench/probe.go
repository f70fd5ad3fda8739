package main

import "time"

// The host-speed probe is a fixed piece of work that belongs to the
// benchmark, not to the program. It runs in registers and touches no
// memory, so no change to the program, its heap or its garbage
// collection can move it. Two multiply-add chains and two xorshift chains
// advance side by side, and a branch on a pseudo-random bit is
// mispredicted about half the time: like the simulator's own code, the
// probe keeps several of the core's execution ports busy, so it slows
// down with the program when another thread shares the core. Timed
// between the passes of a run, it tells how fast the host ran next to
// each pass, and runTimed scales the time metrics by it. README.md
// (Time scaling) gives the measurements behind this choice.

// probeSteps is the number of loop iterations of one probe: about 0.04 s.
const probeSteps = 5_000_000

// probeReps is how many times probe runs between two passes.
const probeReps = 3

var probeSink uint64

// probeOnce runs the probe's work once.
func probeOnce() {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for range probeSteps {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		c = c*2862933555777941757 + 3037000493
		d ^= d >> 7
		if a>>63 == 1 {
			b += c
		} else {
			d += a
		}
	}
	probeSink += a + b + c + d
}

// probe times probeOnce probeReps times and appends each time to times.
func probe(times []float64) []float64 {
	for range probeReps {
		t0 := time.Now()
		probeOnce()
		times = append(times, time.Since(t0).Seconds())
	}
	return times
}
