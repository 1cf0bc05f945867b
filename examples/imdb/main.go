// HTAP database demo (paper §5.1): the same table is served as a row
// store, a column store, and a GS-DRAM store, and each layout runs a
// transaction batch, an analytics query, and the combined HTAP workload
// on the simulated two-core system.
//
// Run with: go run ./examples/imdb [-tuples N]
package main

import (
	"flag"
	"fmt"
	"log"

	"gsdram"
)

func main() {
	tuples := flag.Int("tuples", 32768, "table size in tuples")
	flag.Parse()

	opts := gsdram.QuickOptions()
	opts.Tuples = *tuples
	opts.Txns = 2000

	fmt.Println(gsdram.Table1())

	f9, err := gsdram.RunFig9(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(f9.Table())

	f10, err := gsdram.RunFig10(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(f10.Table())

	opts.Tuples = max(*tuples, 65536) // HTAP needs a DRAM-resident table
	f11, err := gsdram.RunFig11(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(f11.AnalyticsTable())
	fmt.Println(f11.ThroughputTable())

	fmt.Println("GS-DRAM provides the row store's transactions and the column store's analytics")
	fmt.Println("from one physical layout — the paper's \"best of both\" result.")
}
