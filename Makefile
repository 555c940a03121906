GO ?= go

.PHONY: all build test vet bench fuzz race

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench records the core perf trajectory into BENCH_core.{txt,json}.
bench:
	./scripts/bench.sh

# race runs the packages that share materialized streams (and shard
# partitions) across goroutines under the race detector.
race:
	$(GO) test -race ./internal/sweep ./internal/explore ./internal/core ./internal/lrutree ./internal/refsim ./internal/engine ./internal/trace ./internal/store

# fuzz gives each fuzz target a short budget beyond its seed corpus;
# TestMakefileFuzz (reach_test.go) fails when a target is missing here.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzBatchEquivalence -fuzztime 20s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzStreamEquivalence -fuzztime 20s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzShardedEquivalence -fuzztime 20s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzExactness -fuzztime 20s
	$(GO) test ./internal/lrutree -run '^$$' -fuzz FuzzFastEquivalence -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzShardBlockStream -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzIngestShards -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzFoldBlockStream -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzSpanEquivalence -fuzztime 20s
	$(GO) test ./internal/refsim -run '^$$' -fuzz FuzzKindStreamWrite -fuzztime 20s
	$(GO) test ./internal/refsim -run '^$$' -fuzz FuzzRefStream -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDinCorrupt -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDinKernel -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzBinCorrupt -fuzztime 20s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzResultUnmarshal -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDinReader -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzBinReader -fuzztime 20s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzRoundTrip -fuzztime 20s
