// Command tracer is the benchmark's traced run. It repeats one
// workload's work in process — the same trace file, flags and results
// as the tool run the harness times — but calls each simulator module's
// public functions itself, recording a span around every call, and
// prints the spans, its counters and its rendered output as one JSON
// object. The harness turns that into per-layer metrics.
//
// Usage:
//
//	tracer -workload NAME [-work DIR] -- TOOL-FLAGS...
//
// TOOL-FLAGS are the flags the workload passes to its tool.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"dew/bench/span"
)

// flows maps each benchmark workload to its traced reproduction.
var flows = map[string]func(ctx context.Context, rec *span.Recorder, work string, args []string) (*span.Run, error){
	"explore-cold":    exploreFlow,
	"dewsim-streamed": streamedFlow,
	"dewsim-sharded":  shardedFlow,
	"refsim-write":    refsimFlow,
	"sweep-cold":      sweepFlow,
	"sweep-warm":      sweepFlow,
}

func main() {
	workload := flag.String("workload", "", "benchmark workload to trace")
	work := flag.String("work", os.TempDir(), "directory for temporary stores")
	flag.Parse()
	flow, ok := flows[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "tracer: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	run, err := flow(ctx, span.NewRecorder(), *work, flag.Args())
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(run)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracer: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}
