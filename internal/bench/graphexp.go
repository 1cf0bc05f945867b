package bench

import (
	"fmt"

	"gsdram/internal/cpu"
	"gsdram/internal/graph"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/stats"
)

// GraphResult holds the §5.3 graph-processing comparison: the same graph
// kernel on AoS, SoA and GS-DRAM vertex layouts.
type GraphResult struct {
	Vertices int
	AvgDeg   int
	// PageRank and Update cycles, indexed by layout in the order of
	// graphLayouts.
	PageRank [3]uint64
	Update   [3]uint64
}

var graphLayouts = []graph.Layout{graph.AoS, graph.SoA, graph.GS}

// RunGraph runs two PageRank-style iterations (scan-heavy: favours SoA)
// and a batch of opts.Txns random multi-field vertex updates (favours
// AoS) on each layout of a random graph with the given vertex count and
// average degree. GS-DRAM should track the better layout in both.
func RunGraph(vertices, avgDeg int, opts Options) (*GraphResult, error) {
	if vertices <= 0 || vertices%8 != 0 {
		return nil, fmt.Errorf("bench: vertices must be a positive multiple of 8")
	}
	res := &GraphResult{Vertices: vertices, AvgDeg: avgDeg}
	// One job per (layout, kernel): kernel 0 is PageRank, kernel 1 the
	// random update batch. Every job rebuilds the same seeded graph.
	err := opts.pool().Run(len(graphLayouts)*2, func(j int) error {
		li, kernel := j/2, j%2
		layout := graphLayouts[li]
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		g, err := graph.NewRandom(mach, layout, vertices, avgDeg, opts.Seed)
		if err != nil {
			return err
		}
		var s cpu.Stream
		var pr graph.PageRankResult
		var want uint64
		if kernel == 0 {
			want, err = g.ReferenceRankSum(2)
			if err != nil {
				return err
			}
			s, err = g.PageRankStream(2, &pr)
		} else {
			s, err = g.UpdateStream(opts.Txns, 3, opts.Seed+1)
		}
		if err != nil {
			return err
		}
		r, err := newRig(opts, "", memsys.DefaultConfig(1))
		if err != nil {
			return err
		}
		m := run(r, 0, s)
		if kernel == 0 {
			if pr.RankSum != want {
				return fmt.Errorf("bench: %v PageRank sum %d, want %d", layout, pr.RankSum, want)
			}
			res.PageRank[li] = m.Cycles
		} else {
			res.Update[li] = m.Cycles
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the graph comparison.
func (r *GraphResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Graph processing (Section 5.3): %d vertices, avg degree %d (Mcycles)", r.Vertices, r.AvgDeg),
		"vertex layout", "PageRank (2 iters)", "random 3-field updates")
	for li, layout := range graphLayouts {
		t.Add(layout.String(), stats.Mcycles(r.PageRank[li]), stats.Mcycles(r.Update[li]))
	}
	return t
}
