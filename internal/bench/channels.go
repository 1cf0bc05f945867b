package bench

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/stats"
)

// ChannelsResult reports memory-system scaling: two concurrent row-store
// scans on one vs. two DDR3-1600 channels. On one channel the interleaved
// streams fight over the same eight banks (row-buffer conflicts and bus
// serialisation); a second channel doubles banks and bus width.
type ChannelsResult struct {
	Tuples int
	// Indexed by channel count - 1 (1 and 2 channels).
	Cycles [2]uint64
	GBs    [2]float64 // achieved data bandwidth
}

// specForChannels returns the Table 1 organisation widened to n channels
// at constant total capacity.
func specForChannels(n int) addrmap.Spec {
	s := addrmap.Default
	s.Channels = n
	s.Rows = s.Rows / n
	return s
}

// RunChannels measures two concurrent prefetched row-store column scans
// (one per core, over disjoint tables) on 1 and 2 channels.
func RunChannels(opts Options) (*ChannelsResult, error) {
	res := &ChannelsResult{Tuples: opts.Tuples}
	channelCounts := []int{1, 2}
	err := opts.pool().Run(len(channelCounts), func(i int) error {
		channels := channelCounts[i]
		spec := specForChannels(channels)
		mach, err := machine.New(spec, gsdram.GS844)
		if err != nil {
			return err
		}
		dbA, err := imdb.New(mach, imdb.RowStore, opts.Tuples)
		if err != nil {
			return err
		}
		dbB, err := imdb.New(mach, imdb.RowStore, opts.Tuples)
		if err != nil {
			return err
		}
		cfg := memsys.DefaultConfig(2)
		cfg.EnablePrefetch = true
		cfg.Mem.Spec = spec
		r, err := newRig(opts, "", cfg)
		if err != nil {
			return err
		}
		var arA, arB imdb.AnalyticsResult
		sA, err := dbA.AnalyticsStream([]int{0}, &arA)
		if err != nil {
			return err
		}
		sB, err := dbB.AnalyticsStream([]int{0}, &arB)
		if err != nil {
			return err
		}
		m := run(r, 0, sA, sB)
		checkSums(&arA, opts.Tuples, []int{0})
		checkSums(&arB, opts.Tuples, []int{0})
		res.Cycles[i] = m.Cycles
		bytes := float64(m.Ctrl.ReadsServed) * 64
		seconds := float64(m.Cycles) / 4e9
		res.GBs[i] = bytes / seconds / 1e9
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the channel-scaling experiment.
func (r *ChannelsResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Channel scaling: two concurrent prefetched row-store scans, %d tuples each", r.Tuples),
		"channels", "cycles (M)", "achieved bandwidth (GB/s)", "speedup")
	for i := range r.Cycles {
		t.Add(fmt.Sprint(i+1), stats.Mcycles(r.Cycles[i]),
			fmt.Sprintf("%.2f", r.GBs[i]),
			stats.Ratio(float64(r.Cycles[0]), float64(r.Cycles[i])))
	}
	return t
}
