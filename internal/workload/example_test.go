package workload_test

import (
	"fmt"
	"log"

	"dew/internal/trace"
	"dew/internal/workload"
)

// Workload models generate deterministic Mediabench-style traces.
func Example() {
	app, err := workload.Lookup("DJPEG")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(app.Name, "models", app.PaperRequests, "paper requests")

	tr := workload.Take(app.Generator(42), 100_000)
	p, err := trace.ProfileReader(tr.NewSliceReader(), 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated:", p.Total, "accesses")
	fmt.Println("instruction fetches dominate:", p.IFetches() > p.Reads()+p.Writes())
	// Output:
	// DJPEG models 7617458 paper requests
	// generated: 100000 accesses
	// instruction fetches dominate: true
}

// Generators compose: a strict instruction/data interleave over a mix of
// data patterns.
func ExampleNewInterleave() {
	ifetch := workload.NewLoopIFetch(1, 0x400000, 32, 16, 8)
	data := workload.NewSequential(0x10000000, 4, 1<<20, trace.DataRead)
	g := workload.NewInterleave(
		[]workload.Generator{ifetch, data},
		[]int{3, 1}, // three fetches per data access
	)
	kinds := ""
	for _, a := range workload.Take(g, 8) {
		if a.Kind == trace.IFetch {
			kinds += "I"
		} else {
			kinds += "D"
		}
	}
	fmt.Println(kinds)
	// Output:
	// IIIDIIID
}
