// Figure 8, executed: the paper's §4.3 code example, before and after the
// GS-DRAM optimisation.
//
//	Before:                          After:
//	  arr = malloc(512*sizeof(Obj))    arr = pattmalloc(512*sizeof(Obj), SHUFFLE, 7)
//	  for i in 0..511:                 for i in 0..511 step 8:
//	    sum += arr[i].field[0]           for j in 0..7:
//	                                       pattload r1, arr[i]+8*j, 7
//	                                       sum += r1
//
// The paper's claim: the original loop touches 512 cache lines; the
// optimised loop touches 64. This program builds both loops against the
// simulated Table 1 system and reports exactly those counts, the
// speedup, and that both sums agree.
//
// Run with: go run ./examples/figure8
package main

import (
	"fmt"
	"log"

	"gsdram/internal/cpu"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/rig"
	"gsdram/internal/sim"
)

const objects = 512 // 512 objects x 8 fields x 8 bytes, as in the paper

func main() {
	before := runLoop(false)
	after := runLoop(true)

	fmt.Printf("before: sum=%d  cache lines from DRAM=%d  cycles=%d\n",
		before.sum, before.lines, before.cycles)
	fmt.Printf("after:  sum=%d  cache lines from DRAM=%d  cycles=%d\n",
		after.sum, after.lines, after.cycles)
	fmt.Printf("\n%dx fewer lines, %.1fx faster — Figure 8's \"one cache line for\n",
		before.lines/after.lines, float64(before.cycles)/float64(after.cycles))
	fmt.Println("eight fields\" annotation, measured.")
	if before.sum != after.sum {
		log.Fatal("sums differ!")
	}
}

type outcome struct {
	sum    uint64
	lines  uint64
	cycles sim.Cycle
}

// runLoop executes the Figure 8 loop over a fresh machine and memory
// system. optimised selects the pattmalloc + pattload version.
func runLoop(optimised bool) outcome {
	mach, err := machine.Default()
	if err != nil {
		log.Fatal(err)
	}
	// The table layouts double as the example's object array: a row store
	// is malloc'd, the GS store is pattmalloc'd with pattern 7.
	layout := imdb.RowStore
	if optimised {
		layout = imdb.GSStore
	}
	db, err := imdb.New(mach, layout, objects)
	if err != nil {
		log.Fatal(err)
	}

	var out outcome
	var ops []cpu.Op
	if !optimised {
		// for (i = 0; i < 512; i++) sum += arr[i].field[0];
		for i := 0; i < objects; i++ {
			v, err := db.ReadField(i, 0)
			if err != nil {
				log.Fatal(err)
			}
			out.sum += v
			ops = append(ops, cpu.Load(db.FieldAddr(i, 0), 0x8), cpu.Compute(2))
		}
	} else {
		// for (i = 0; i < 512; i += 8) for (j = 0; j < 8; j++)
		//     pattload r1, arr[i]+8*j, 7; sum += r1
		for i := 0; i < objects; i += 8 {
			for j := 0; j < 8; j++ {
				v, err := db.ReadField(i+j, 0)
				if err != nil {
					log.Fatal(err)
				}
				out.sum += v
				ops = append(ops,
					cpu.PattLoad(db.GatherLineAddr(i+j, 0), imdb.FieldPattern, 0x8),
					cpu.Compute(2))
			}
		}
	}

	r, err := rig.New(memsys.DefaultConfig(1), rig.Options{})
	if err != nil {
		log.Fatal(err)
	}
	core := cpu.New(0, r.Queue(), r.Mem(), cpu.SliceStream(ops), nil)
	if err := r.Run(core); err != nil {
		log.Fatal(err)
	}

	out.lines = r.Mem().Stats().DRAMReads
	out.cycles = core.Stats().Runtime()
	return out
}
