// Package graph implements the graph-processing use case of paper §5.3:
// "operations that update individual nodes in the graph have different
// access patterns than those that traverse the graph."
//
// Vertices carry eight 8-byte fields (one 64-byte record). A
// PageRank-style kernel alternates three phases with opposite layout
// preferences:
//
//   - contribution scan: one field of every vertex, sequential — favours
//     a struct-of-arrays (SoA) layout or a GS-DRAM gather;
//   - edge phase: random reads of a packed per-vertex value through the
//     CSR adjacency — layout-neutral;
//   - vertex update: several fields of individual vertices — favours an
//     array-of-structs (AoS) layout.
//
// As with the database workload, GS-DRAM stores records AoS in shuffled
// pages and serves both the scan (pattern 7) and the update (pattern 0)
// at full density.
package graph

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cpu"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/sim"
)

// FieldsPerVertex is the vertex record width: 8 fields x 8 bytes.
const FieldsPerVertex = 8

// Well-known field indices of the vertex record.
const (
	FieldRank   = 0
	FieldDegree = 1
	FieldFlags  = 2
	FieldDist   = 3
)

// ScanPattern gathers one field across 8 consecutive vertices.
const ScanPattern gsdram.Pattern = 7

// Layout selects the physical organisation of the vertex table.
type Layout int

const (
	// AoS stores each vertex's record contiguously (array of structs).
	AoS Layout = iota
	// SoA stores each field contiguously (struct of arrays).
	SoA
	// GS stores records AoS in pattmalloc'd pages: updates use pattern 0,
	// scans use pattern 7.
	GS
)

func (l Layout) String() string {
	switch l {
	case AoS:
		return "AoS"
	case SoA:
		return "SoA"
	case GS:
		return "GS-DRAM"
	default:
		return "unknown"
	}
}

// Graph is a CSR directed graph with a vertex property table in machine
// memory.
type Graph struct {
	mach   *machine.Machine
	layout Layout
	n      int

	offsets []int32 // CSR row offsets, len n+1
	edges   []int32 // CSR column indices

	vertBase addrmap.Addr                  // AoS / GS record array
	colBase  [FieldsPerVertex]addrmap.Addr // SoA field arrays
	// contribBase is the packed contributions array used by the edge
	// phase; identical in every layout.
	contribBase addrmap.Addr
	// edgeBase backs the adjacency array so edge streaming costs memory
	// traffic too.
	edgeBase addrmap.Addr
}

// NewRandom builds a random directed graph with n vertices and roughly
// avgDeg out-edges per vertex, and a vertex table in the given layout.
// n must be a multiple of 8.
func NewRandom(mach *machine.Machine, layout Layout, n, avgDeg int, seed uint64) (*Graph, error) {
	if n <= 0 || n%8 != 0 {
		return nil, fmt.Errorf("graph: n must be a positive multiple of 8, got %d", n)
	}
	if avgDeg <= 0 {
		return nil, fmt.Errorf("graph: avgDeg must be positive, got %d", avgDeg)
	}
	g := &Graph{mach: mach, layout: layout, n: n}
	rng := sim.NewRand(seed)

	// Degrees in [1, 2*avgDeg-1] so every vertex has at least one edge.
	degs := make([]int, n)
	total := 0
	for i := range degs {
		degs[i] = 1 + rng.Intn(2*avgDeg-1)
		total += degs[i]
	}
	g.offsets = make([]int32, n+1)
	g.edges = make([]int32, total)
	pos := 0
	for u := 0; u < n; u++ {
		g.offsets[u] = int32(pos)
		for d := 0; d < degs[u]; d++ {
			g.edges[pos] = int32(rng.Intn(n))
			pos++
		}
	}
	g.offsets[n] = int32(pos)

	var err error
	switch layout {
	case AoS:
		g.vertBase, err = mach.AS.Malloc(n * 64)
	case GS:
		g.vertBase, err = mach.AS.PattMalloc(n*64, ScanPattern)
	case SoA:
		for f := 0; f < FieldsPerVertex; f++ {
			g.colBase[f], err = mach.AS.Malloc(n * 8)
			if err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("graph: unknown layout %d", layout)
	}
	if err != nil {
		return nil, err
	}
	if g.contribBase, err = mach.AS.Malloc(n * 8); err != nil {
		return nil, err
	}
	if g.edgeBase, err = mach.AS.Malloc(total * 8); err != nil {
		return nil, err
	}

	// Initial state: rank = 1000 (fixed point), degree, zero elsewhere.
	for u := 0; u < n; u++ {
		if err := g.WriteField(u, FieldRank, 1000); err != nil {
			return nil, err
		}
		if err := g.WriteField(u, FieldDegree, uint64(degs[u])); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// Layout returns the table layout.
func (g *Graph) Layout() Layout { return g.layout }

// Edges returns the total edge count.
func (g *Graph) Edges() int { return len(g.edges) }

// OutDegree returns vertex u's out-degree.
func (g *Graph) OutDegree(u int) int { return int(g.offsets[u+1] - g.offsets[u]) }

// FieldAddr returns the byte address of field f of vertex u.
func (g *Graph) FieldAddr(u, f int) addrmap.Addr {
	if g.layout == SoA {
		return g.colBase[f] + addrmap.Addr(u*8)
	}
	return g.vertBase + addrmap.Addr(u*64+f*8)
}

// ReadField reads field f of vertex u functionally.
func (g *Graph) ReadField(u, f int) (uint64, error) {
	return g.mach.ReadWord(g.FieldAddr(u, f))
}

// WriteField writes field f of vertex u functionally.
func (g *Graph) WriteField(u, f int, v uint64) error {
	return g.mach.WriteWord(g.FieldAddr(u, f), v)
}

func (g *Graph) contribAddr(u int) addrmap.Addr { return g.contribBase + addrmap.Addr(u*8) }
func (g *Graph) edgeAddr(i int) addrmap.Addr    { return g.edgeBase + addrmap.Addr(i*8) }

// gatherLineAddr is the pattern-7 line gathering field f of the 8-vertex
// group containing u (AoS base is page aligned, so the imdb closed form
// applies).
func (g *Graph) gatherLineAddr(u, f int) addrmap.Addr {
	return g.vertBase + addrmap.Addr(((u&^7)+f)*64)
}

func (g *Graph) fieldLoad(u, f int, pc uint64) cpu.Op {
	if g.layout == GS {
		// Scans use the gathered line; 8 consecutive vertices share it.
		return cpu.PattLoad(g.gatherLineAddr(u, f), ScanPattern, pc)
	}
	return cpu.Load(g.FieldAddr(u, f), pc)
}

func (g *Graph) recordLoad(u, f int, pc uint64) cpu.Op {
	op := cpu.Load(g.FieldAddr(u, f), pc)
	if g.layout == GS {
		op.Shuffled = true
		op.AltPattern = ScanPattern
	}
	return op
}

// fieldStore is the store counterpart of fieldLoad: sequential
// whole-plane updates on the GS layout scatter through the gathered line
// (pattstore), so eight consecutive vertices share one line.
func (g *Graph) fieldStore(u, f int, pc uint64) cpu.Op {
	if g.layout == GS {
		return cpu.PattStore(g.gatherLineAddr(u, f), ScanPattern, pc)
	}
	return cpu.Store(g.FieldAddr(u, f), pc)
}

func (g *Graph) recordStore(u, f int, pc uint64) cpu.Op {
	op := cpu.Store(g.FieldAddr(u, f), pc)
	if g.layout == GS {
		op.Shuffled = true
		op.AltPattern = ScanPattern
	}
	return op
}

// PageRankResult holds the functional outcome of iterations.
type PageRankResult struct {
	// RankSum is the sum of all ranks after the run (fixed-point).
	RankSum uint64
}

// PageRankStream returns an instruction stream executing `iters`
// PageRank-style iterations:
//
//  1. contribution scan: contrib[u] = rank(u) / degree(u) — reads two
//     fields of every vertex sequentially, writes the packed array;
//  2. edge phase: for every edge (u,v), acc[u] += contrib[v] — streams
//     the adjacency and reads contributions at random;
//  3. update: rank(u) = base + damped accumulator, flags(u) updated —
//     writes two fields of every vertex.
//
// All arithmetic is integer (fixed-point) so results verify exactly.
func (g *Graph) PageRankStream(iters int, res *PageRankResult) (cpu.Stream, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("graph: iters must be positive, got %d", iters)
	}
	if res == nil {
		res = &PageRankResult{}
	}

	contrib := make([]uint64, g.n)
	acc := make([]uint64, g.n)

	type state struct {
		iter, phase, u, e int
	}
	st := state{}
	var pending cpu.OpQueue

	emitScan := func(u int) {
		rank, err := g.ReadField(u, FieldRank)
		if err != nil {
			panic(err)
		}
		deg, err := g.ReadField(u, FieldDegree)
		if err != nil {
			panic(err)
		}
		contrib[u] = rank / deg
		if werr := g.mach.WriteWord(g.contribAddr(u), contrib[u]); werr != nil {
			panic(werr)
		}
		// Two field loads + contribution store + divide.
		pending.Push(
			g.fieldLoad(u, FieldRank, 0x2000),
			g.fieldLoad(u, FieldDegree, 0x2001),
			cpu.Compute(4),
			cpu.Store(g.contribAddr(u), 0x2002),
		)
	}

	emitEdges := func(u int) {
		start, end := int(g.offsets[u]), int(g.offsets[u+1])
		for e := start; e < end; e++ {
			v := int(g.edges[e])
			acc[u] += contrib[v]
			pending.Push(
				cpu.Load(g.edgeAddr(e), 0x2100),
				cpu.Load(g.contribAddr(v), 0x2101),
				cpu.Compute(2),
			)
		}
	}

	emitUpdate := func(u int) {
		newRank := 150 + (acc[u]*85)/100
		acc[u] = 0
		if err := g.WriteField(u, FieldRank, newRank); err != nil {
			panic(err)
		}
		if err := g.WriteField(u, FieldFlags, uint64(st.iter+1)); err != nil {
			panic(err)
		}
		pending.Push(
			cpu.Compute(5),
			g.fieldLoad(u, FieldRank, 0x2200),
			g.fieldStore(u, FieldRank, 0x2201),
			g.fieldStore(u, FieldFlags, 0x2202),
		)
	}

	finished := false
	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if finished {
				return cpu.Op{}, false
			}
			switch st.phase {
			case 0:
				emitScan(st.u)
			case 1:
				emitEdges(st.u)
			case 2:
				emitUpdate(st.u)
			}
			st.u++
			if st.u >= g.n {
				st.u = 0
				st.phase++
				if st.phase == 3 {
					st.phase = 0
					st.iter++
					if st.iter >= iters {
						finished = true
						for u := 0; u < g.n; u++ {
							r, err := g.ReadField(u, FieldRank)
							if err != nil {
								panic(err)
							}
							res.RankSum += r
						}
					}
				}
			}
		}
		return pending.Pop()
	}), nil
}

// UpdateStream returns a stream of `count` random single-vertex updates
// touching `fields` fields each — the paper's "update individual nodes"
// pattern, which favours AoS records.
func (g *Graph) UpdateStream(count, fields int, seed uint64) (cpu.Stream, error) {
	if fields <= 0 || fields > FieldsPerVertex {
		return nil, fmt.Errorf("graph: fields must be in [1,%d], got %d", FieldsPerVertex, fields)
	}
	if count <= 0 {
		return nil, fmt.Errorf("graph: count must be positive, got %d", count)
	}
	rng := sim.NewRand(seed)
	done := 0
	var pending cpu.OpQueue
	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if done >= count {
				return cpu.Op{}, false
			}
			u := rng.Intn(g.n)
			pending.Push(cpu.Compute(8))
			for f := 0; f < fields; f++ {
				v, err := g.ReadField(u, f)
				if err != nil {
					panic(err)
				}
				if err := g.WriteField(u, f, v+1); err != nil {
					panic(err)
				}
				pending.Push(
					g.recordLoad(u, f, 0x2300+uint64(f)),
					g.recordStore(u, f, 0x2400+uint64(f)),
					cpu.Compute(2),
				)
			}
			done++
		}
		return pending.Pop()
	}), nil
}

// ReferenceRankSum computes the expected rank sum after `iters` PageRank
// iterations directly, for verifying PageRankStream's functional result.
func (g *Graph) ReferenceRankSum(iters int) (uint64, error) {
	rank := make([]uint64, g.n)
	deg := make([]uint64, g.n)
	for u := 0; u < g.n; u++ {
		r, err := g.ReadField(u, FieldRank)
		if err != nil {
			return 0, err
		}
		rank[u] = r
		deg[u] = uint64(g.OutDegree(u))
	}
	contrib := make([]uint64, g.n)
	for it := 0; it < iters; it++ {
		for u := 0; u < g.n; u++ {
			contrib[u] = rank[u] / deg[u]
		}
		for u := 0; u < g.n; u++ {
			var acc uint64
			for e := g.offsets[u]; e < g.offsets[u+1]; e++ {
				acc += contrib[g.edges[e]]
			}
			rank[u] = 150 + (acc*85)/100
		}
	}
	var sum uint64
	for u := 0; u < g.n; u++ {
		sum += rank[u]
	}
	return sum, nil
}
