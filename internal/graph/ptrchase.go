package graph

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cpu"
	"gsdram/internal/gsdram"
	"gsdram/internal/sim"
)

// This file is the pointer-chasing traversal of the indexed access path:
// every vertex stores a "next" pointer (a random single-cycle
// permutation, see InitPtrChase) in FieldDist, and a batch of chains
// walks the pointers in lockstep. A
// single chain is inherently serial — each hop's address depends on the
// previous hop's value — so the kernel uses the standard batched
// formulation: B independent chains advance together, and each step's B
// next-pointer reads form one index vector.
//
// The index vectors are data-dependent and unstructured (wherever the
// chains happen to be), so like SpMV this is a fallback-dominated
// gatherv workload: the win over scalar loads is burst batching and
// bank-level parallelism, while pattern gathers contribute only when
// chains coincidentally cluster into a stride-8 group.

// PtrChaseResult accumulates the functional outcome; every layout and
// access variant of the same (chains, steps, seed) must agree on it.
type PtrChaseResult struct {
	Hops     uint64
	Checksum uint64 // FNV-style fold of every pointer value read
}

// InitPtrChase writes a seeded random single-cycle permutation (Sattolo)
// into every vertex's FieldDist, linking the whole table into one
// Hamiltonian pointer cycle — the classic pointer-chasing structure.
// A single out-neighbour per vertex would converge chains into short
// cycles whose working set caches trivially; the n-cycle guarantees a
// chain touches a fresh vertex every hop, so the chase working set is
// the entire table.
func (g *Graph) InitPtrChase(seed uint64) error {
	next := make([]int32, g.n)
	for u := range next {
		next[u] = int32(u)
	}
	rng := sim.NewRand(seed)
	for i := g.n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	for u := 0; u < g.n; u++ {
		if err := g.WriteField(u, FieldDist, uint64(next[u])); err != nil {
			return err
		}
	}
	return nil
}

// PtrChaseStream returns the instruction stream of `steps` lockstep hops
// of `chains` pointer chains starting at seeded random vertices. With
// gatherv each step issues one indexed gather over the chain heads'
// next-pointer fields; without, each head is a separate scalar load —
// the per-element fallback the speedup claims are measured against.
// Call InitPtrChase first (the stream reads FieldDist functionally).
func (g *Graph) PtrChaseStream(chains, steps int, seed uint64, gatherv bool, res *PtrChaseResult) (cpu.Stream, error) {
	if chains <= 0 || steps <= 0 {
		return nil, fmt.Errorf("graph: ptrchase chains (%d) and steps (%d) must be positive", chains, steps)
	}
	if res == nil {
		res = &PtrChaseResult{}
	}
	rng := sim.NewRand(seed)
	cur := make([]int, chains)
	for i := range cur {
		cur[i] = rng.Intn(g.n)
	}
	alt := gsdram.Pattern(0)
	shuffled := g.layout == GS
	if shuffled {
		alt = ScanPattern
	}

	step := 0
	var pending cpu.OpQueue

	emitStep := func() {
		addrs := make([]addrmap.Addr, chains)
		heads := make([]int, chains)
		copy(heads, cur)
		for i, u := range heads {
			addrs[i] = g.FieldAddr(u, FieldDist)
			v, err := g.ReadField(u, FieldDist)
			if err != nil {
				panic(fmt.Sprintf("graph: ptrchase functional read failed: %v", err))
			}
			res.Checksum = res.Checksum*1099511628211 ^ v
			res.Hops++
			cur[i] = int(v)
		}
		if gatherv {
			pending.Push(cpu.GatherV(addrs, shuffled, alt, 0x2500), cpu.Compute(chains))
		} else {
			for _, u := range heads {
				pending.Push(g.recordLoad(u, FieldDist, 0x2500), cpu.Compute(1))
			}
		}
	}

	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if step >= steps {
				return cpu.Op{}, false
			}
			emitStep()
			step++
		}
		return pending.Pop()
	}), nil
}
