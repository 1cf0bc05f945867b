package main

import (
	"math"
	"testing"
	"time"
)

// TestTickNormalises checks that a timed segment leaves out the reference
// samplings and is rescaled by refNS over the median reference time on
// either side of it: wall time by wall times, CPU time by CPU times.
func TestTickNormalises(t *testing.T) {
	c := newHostClock(newReference())
	beforeWall := append([]float64(nil), c.beforeWall...)
	beforeCPU := append([]float64(nil), c.beforeCPU...)
	time.Sleep(20 * time.Millisecond)
	c.tick(true)
	if c.rawNS < 20e6 || c.rawNS >= float64(refMin) {
		t.Errorf("segment took %v ns, want about 20 ms without the %v samplings", c.rawNS, refMin)
	}
	want := c.rawNS * refNS / median(append(beforeWall, c.beforeWall...))
	if math.Abs(c.wallNS-want) > 1e-9*want {
		t.Errorf("normalised wall %v ns, want %v", c.wallNS, want)
	}
	// A sleeping segment takes almost no CPU time.
	if limit := 5e6 * refNS / median(append(beforeCPU, c.beforeCPU...)); c.cpuNS > limit {
		t.Errorf("normalised CPU %v ns of a sleep, want under %v", c.cpuNS, limit)
	}
	if len(c.refWalls) != len(beforeWall)+len(c.beforeWall) || c.refCPUNS <= 0 {
		t.Errorf("%d reference walls, %v ns reference CPU", len(c.refWalls), c.refCPUNS)
	}

	// Without a reference the times are as measured.
	q := newHostClock(nil)
	time.Sleep(time.Millisecond)
	q.tick(true)
	if q.wallNS != q.rawNS || len(q.refWalls) != 0 {
		t.Errorf("unnormalised clock: wall %v, raw %v, %d samples", q.wallNS, q.rawNS, len(q.refWalls))
	}
}
