package imdb

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cpu"
	"gsdram/internal/gsdram"
	"gsdram/internal/sim"
)

// This file is the hash-join probe workload of the indexed access path:
// build a join hash index over the table's key column, then probe it
// with batches of lookup keys and fetch the payload field of every
// matching tuple. The two memory-bound phases have opposite structure:
//
//   - the build scan reads the key field of every tuple — a stride-8
//     field walk that the gatherv coalescer turns into pattern-7 bursts
//     on shuffled pages (8 keys per DRAM read), exactly the paper's
//     field-scan case expressed through an explicit index vector;
//   - the probe fetches payloads of *random* tuples — index vectors with
//     no pattern structure, where coalescing degenerates to one default
//     burst per element and the win reduces to batching (bank-level
//     parallelism instead of one blocking miss per element).
//
// The hash directory itself is modelled as compute (the key is
// InitialValue(t, 0) = 10t, a perfect hash), so the measured memory
// traffic is exactly the column scan plus the payload gathers.

// HashJoinPayloadField is the field probes fetch from matching tuples.
const HashJoinPayloadField = 1

// hashJoinBuildBatch is the build scan's gatherv vector length: 64 keys
// = 8 pattern-7 bursts on a shuffled table.
const hashJoinBuildBatch = 64

// HashJoinResult accumulates the functional outcome; all layouts and
// access variants of the same (probes, batch, seed) must agree on it.
type HashJoinResult struct {
	Probes   uint64
	Matches  uint64
	Checksum uint64 // XOR of every key and payload read
}

// HashJoinStream returns the instruction stream of the join: the full
// build scan followed by `probes` probes issued in batches of `batch`.
// With gatherv the key scan and the payload fetches issue indexed
// gathers; without, each element is a separate (cached) scalar load —
// the per-element fallback the speedup claims are measured against.
func (db *DB) HashJoinStream(probes, batch int, seed uint64, gatherv bool, res *HashJoinResult) (cpu.Stream, error) {
	if probes <= 0 || batch <= 0 {
		return nil, fmt.Errorf("imdb: hashjoin probes (%d) and batch (%d) must be positive", probes, batch)
	}
	if res == nil {
		res = &HashJoinResult{}
	}
	rng := sim.NewRand(seed)
	shuffled := db.layout == GSStore
	alt := gsdram.Pattern(0)
	if shuffled {
		alt = FieldPattern
	}

	buildT := 0
	probesDone := 0
	var pending cpu.OpQueue

	readKey := func(t, f int) uint64 {
		v, err := db.ReadField(t, f)
		if err != nil {
			panic(fmt.Sprintf("imdb: hashjoin functional read failed: %v", err))
		}
		return v
	}

	emitBuild := func() {
		n := hashJoinBuildBatch
		if db.tuples-buildT < n {
			n = db.tuples - buildT
		}
		addrs := make([]addrmap.Addr, n)
		for i := 0; i < n; i++ {
			t := buildT + i
			res.Checksum ^= readKey(t, 0)
			addrs[i] = db.FieldAddr(t, 0)
		}
		if gatherv {
			pending.Push(cpu.GatherV(addrs, shuffled, alt, 0x3000), cpu.Compute(n))
		} else {
			for i := 0; i < n; i++ {
				pending.Push(db.loadOp(buildT+i, 0, 0x3000), cpu.Compute(1))
			}
		}
		buildT += n
	}

	emitProbes := func() {
		var addrs []addrmap.Addr
		var matched []int
		for i := 0; i < batch; i++ {
			t := rng.Intn(db.tuples)
			res.Probes++
			if rng.Intn(4) == 0 {
				continue // probe key absent from the table: bucket miss
			}
			res.Matches++
			res.Checksum ^= readKey(t, HashJoinPayloadField)
			addrs = append(addrs, db.FieldAddr(t, HashJoinPayloadField))
			matched = append(matched, t)
		}
		pending.Push(cpu.Compute(2 * batch)) // hash + directory walk
		if gatherv {
			if len(addrs) > 0 {
				pending.Push(cpu.GatherV(addrs, shuffled, alt, 0x3100))
			}
		} else {
			for _, t := range matched {
				pending.Push(db.loadOp(t, HashJoinPayloadField, 0x3100))
			}
		}
		probesDone += batch
	}

	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if buildT < db.tuples {
				emitBuild()
				continue
			}
			if probesDone >= probes {
				return cpu.Op{}, false
			}
			emitProbes()
		}
		return pending.Pop()
	}), nil
}

// ExpectedHashJoinChecksum replays the join functionally over the
// closed-form table contents, for verifying a stream's result without a
// machine.
func ExpectedHashJoinChecksum(tuples, probes, batch int, seed uint64) HashJoinResult {
	var res HashJoinResult
	rng := sim.NewRand(seed)
	for t := 0; t < tuples; t++ {
		res.Checksum ^= InitialValue(t, 0)
	}
	for done := 0; done < probes; done += batch {
		for i := 0; i < batch; i++ {
			t := rng.Intn(tuples)
			res.Probes++
			if rng.Intn(4) == 0 {
				continue
			}
			res.Matches++
			res.Checksum ^= InitialValue(t, HashJoinPayloadField)
		}
	}
	return res
}
