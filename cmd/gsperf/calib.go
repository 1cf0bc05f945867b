package main

import (
	"container/heap"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host a benchmark runs on is shared: its speed drifts by a third
// within seconds and over minutes as other tenants come and go, which
// swamps the changes the benchmark must resolve. So a timed child also
// runs a reference workload next to its real work (hostClock), and
// rescales the work's wall and CPU time by how fast the reference ran
// around it: the reported times are seconds of a host that runs the
// reference in refNS.
//
// The reference is a miniature of what the simulator does on every
// access: a set-associative cache lookup with LRU replacement, misses
// tracked in a map keyed like the simulator's MSHRs and completed through
// an event queue on container/heap, and a touch of a backing table eight
// times the size of the L2. It lives here, so no change to the simulator
// moves it. On the two-vCPU Xeon the benchmark was defined on, it tracked
// the simulator's speed as the host drifted better than a plain event
// queue, map, pointer chase through DRAM or arithmetic loop did: over 43
// windows of 15 s, it cut the spread of a detailed fig9 run's median time
// from 8.6% (coefficient of variation) to 3.8%.

// refNS is the reference workload's nominal time, about its median on the
// host the benchmark was defined on.
const refNS = 2e6

// refDuty is the reference's sampling time as a share of the work's, and
// refMin the shortest sampling.
const (
	refDuty = 0.2
	refMin  = 100 * time.Millisecond
)

// tickEvery is the shortest stretch of work between two reference
// samplings; shorter operations are timed together.
const tickEvery = time.Second

const (
	refAccesses = 1 << 14
	refSets     = 4096 // of 8 ways of 64-byte lines: a 2 MB cache
	refWays     = 8
	refMSHRs    = 64
	refLines    = 1 << 19 // 32 MB of lines
	refTable    = 1 << 21 // 16 MB of words touched on misses
	refSeed     = 0x9e3779b97f4a7c15
)

// refKey keys an outstanding miss, as the simulator's MSHRs do.
type refKey struct {
	line    uint64
	pattern uint8
}

// refMiss is an outstanding miss and its completion time.
type refMiss struct {
	at  uint64
	key refKey
}

// reference is the reference workload's state, built once and reused so
// that a run allocates nothing.
type reference struct {
	tags   []uint64 // line+1 per way; 0 is empty
	ages   []uint32
	clock  uint32
	misses [refMSHRs]refMiss
	mshr   map[refKey]*refMiss
	queue  refQueue
	table  []uint64
	x      uint64 // the random stream, continued across runs
	sink   uint64
}

func newReference() *reference {
	r := &reference{
		tags:  make([]uint64, refSets*refWays),
		ages:  make([]uint32, refSets*refWays),
		mshr:  make(map[refKey]*refMiss, refMSHRs),
		queue: make(refQueue, 0, refMSHRs),
		table: make([]uint64, refTable),
		x:     refSeed,
	}
	r.once() // fault the table in and warm the code
	return r
}

// sample runs the reference workload for at least d on one OS thread
// and returns the wall and CPU time of each run.
func (r *reference) sample(d time.Duration) (walls, cpus []float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for begin := time.Now(); time.Since(begin) < d; {
		w, c := time.Now(), cpuClock(clockThreadCPU)
		r.once()
		cpus = append(cpus, float64(cpuClock(clockThreadCPU)-c))
		walls = append(walls, float64(time.Since(w)))
	}
	return walls, cpus
}

// once runs the reference workload one time. Three quarters of the
// accesses walk the same lines every run and hit after the first; the
// rest go to random lines, new in each run, and nearly all miss.
func (r *reference) once() {
	x, now, used := r.x, uint64(0), 0
	for i := 0; i < refAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := (x >> 20) % refLines
		if x&3 != 0 {
			line = uint64(i>>2) % refLines
		}
		base := int(line%refSets) * refWays
		r.clock++
		now++
		hit, victim := false, base
		for w := base; w < base+refWays; w++ {
			if r.tags[w] == line+1 {
				hit = true
				r.ages[w] = r.clock
				break
			}
			if r.ages[w] < r.ages[victim] {
				victim = w
			}
		}
		if hit {
			continue
		}
		key := refKey{line, uint8(x & 1)}
		if _, ok := r.mshr[key]; !ok {
			var m *refMiss
			if used < refMSHRs {
				m = &r.misses[used]
				used++
			} else {
				m = heap.Pop(&r.queue).(*refMiss)
				delete(r.mshr, m.key)
				now = max(now, m.at)
			}
			m.at, m.key = now+100+x&63, key
			r.mshr[key] = m
			heap.Push(&r.queue, m)
			r.table[(line*8)%refTable]++
		}
		r.tags[victim] = line + 1
		r.ages[victim] = r.clock
	}
	r.queue = r.queue[:0]
	clear(r.mshr)
	r.x, r.sink = x, r.sink+now
}

// refQueue is a min-heap of misses by completion time.
type refQueue []*refMiss

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refMiss)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// hostClock times a child's work in segments between reference
// samplings, leaving the samplings out. Wall time is normalised by the
// reference's wall times and CPU time by its CPU times: a stretch in which
// other tenants held the vCPU lengthens both the work's wall time and the
// reference's, but neither's CPU time.
type hostClock struct {
	ref      *reference // nil: report the times as measured
	segBegin time.Time
	segCPU   time.Duration
	// The reference times just before the current segment, every
	// reference wall time, and the CPU time the reference took.
	beforeWall, beforeCPU []float64
	refWalls              []float64
	refCPUNS              float64
	// The work's wall time as measured, and its wall and CPU time
	// normalised.
	rawNS, wallNS, cpuNS float64
}

func newHostClock(ref *reference) hostClock {
	c := hostClock{ref: ref}
	if ref != nil {
		c.beforeWall, c.beforeCPU = c.sample(refMin)
	}
	c.segBegin, c.segCPU = time.Now(), cpuClock(clockProcessCPU)
	return c
}

func (c *hostClock) sample(d time.Duration) (walls, cpus []float64) {
	walls, cpus = c.ref.sample(d)
	c.refWalls = append(c.refWalls, walls...)
	for _, t := range cpus {
		c.refCPUNS += t
	}
	return walls, cpus
}

// tick ends the current segment once it has run for tickEvery, or at once
// when force is set. It samples the reference for refDuty of the
// segment's wall time, and adds the segment's wall and CPU time, each
// rescaled by refNS over the median of that kind of reference time on
// either side of the segment. The workload calls tick between operations,
// where no other goroutine of it is busy.
func (c *hostClock) tick(force bool) {
	wall := time.Since(c.segBegin)
	if !force && wall < tickEvery {
		return
	}
	cpu := cpuClock(clockProcessCPU) - c.segCPU
	wallScale, cpuScale := 1.0, 1.0
	if c.ref != nil {
		walls, cpus := c.sample(max(refMin, time.Duration(refDuty*float64(wall))))
		wallScale = refNS / median(append(c.beforeWall, walls...))
		cpuScale = refNS / median(append(c.beforeCPU, cpus...))
		c.beforeWall, c.beforeCPU = walls, cpus
	}
	c.rawNS += float64(wall)
	c.wallNS += float64(wall) * wallScale
	c.cpuNS += float64(cpu) * cpuScale
	c.segBegin, c.segCPU = time.Now(), cpuClock(clockProcessCPU)
}

// Clocks of clock_gettime(2) on Linux.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock of the process or the calling thread.
// Unlike getrusage, which counts in scheduler ticks, it is exact to the
// nanosecond, which a reference run of milliseconds needs.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
