package bench

import (
	"reflect"
	"sync"
	"testing"
)

// TestInlineEquivalence pins the invariant of the event-horizon fast path
// (internal/cpu): a full Figure 9 run — cycles, core stats, cache and
// controller counters, energy — is bit-identical between inline execution
// and the pure event-driven reference (Options.NoInline), at both the
// serial and a concurrent worker count. The switch is per batch, so the
// inline and the event-driven batch run at the same time in one process;
// under -race this also proves the two batches share no state.
func TestInlineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 9 comparison in -short mode")
	}
	for _, workers := range []int{1, 8} {
		var results [2]*Fig9Result
		var errs [2]error
		var wg sync.WaitGroup
		for i, noInline := range []bool{false, true} {
			opts := QuickOptions()
			opts.Workers = workers
			opts.NoInline = noInline
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = RunFig9(opts)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d noinline=%v: %v", workers, i == 1, err)
			}
		}

		inline, eventDriven := results[0], results[1]
		if !reflect.DeepEqual(inline.Runs, eventDriven.Runs) {
			t.Errorf("workers=%d: inline and -noinline Figure 9 stats differ", workers)
			for _, l := range layouts {
				for i := range inline.Runs[l] {
					if !reflect.DeepEqual(inline.Runs[l][i], eventDriven.Runs[l][i]) {
						t.Logf("%v mix %v:\n inline   %+v\n noinline %+v",
							l, inline.Mixes[i], inline.Runs[l][i], eventDriven.Runs[l][i])
					}
				}
			}
		}
	}
}
