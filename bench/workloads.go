package main

import "strconv"

// workload is one benchmark workload: a real tool process run on
// generated inputs. Every workload runs one process at a time with at
// most 2 workers or shards, the core count of the host the bounds were
// set on.
type workload struct {
	name string
	tool string
	// input is the trace file tracegen writes at set-up; nil for the
	// sweeps, whose tool generates its seeded traces itself.
	input *input
	// args are the tool's flags; see expand for the placeholders.
	args []string
	// cache is how the workload's runs use the artifact cache.
	cache cacheUse
	// oracle is how the warm-up output is checked against per-access
	// reference replay.
	oracle oracleKind
}

type input struct {
	app  string
	file string
	// n and quickN are the access counts of a normal and a -quick run.
	n, quickN uint64
}

type cacheUse int

const (
	noCache    cacheUse = iota
	freshCache          // every run starts from an empty cache directory
	warmCache           // set-up populates the cache every run then reads
)

type oracleKind int

const (
	// oracleRows replays a seeded sample of the result table's
	// configurations through per-access refsim.
	oracleRows oracleKind = iota
	// oracleRefsim replays the same configuration through per-access
	// (unsharded) refsim; the outputs must match after normalization.
	oracleRefsim
	// oracleSweep relies on the sweep itself, which cross-checks every
	// configuration of every cell against the reference simulator and
	// fails on any divergence.
	oracleSweep
)

// sweepRequests is the sweeps' trace length per application, normal and
// -quick.
const sweepRequests, sweepQuickRequests = 30_000, 20_000

var workloads = []workload{
	{
		// Simulation-bound: the paper's whole 525-configuration space,
		// 28 DEW passes from one decode and six folds, two passes at a
		// time. Touches no cache.
		name:   "explore-cold",
		tool:   "explore",
		input:  &input{app: "MPEG2 Dec", file: "mpeg2dec.din", n: 1_000_000, quickN: 20_000},
		args:   []string{"-trace", "{trace}", "-workers", "2", "-quiet", "-csv"},
		oracle: oracleRows,
	},
	{
		// The bounded span pipeline: gzip + DTB1 decode overlapped with
		// the incremental fold ladder and replay in 8 MiB of stream.
		name:   "dewsim-streamed",
		tool:   "dewsim",
		input:  &input{app: "G721 Dec", file: "g721dec.dtb.gz", n: 4_000_000, quickN: 20_000},
		args:   []string{"-trace", "{trace}", "-assoc", "4", "-maxlog", "14", "-blocks", "4,16,64", "-stream-mem", "8388608", "-csv"},
		oracle: oracleRows,
	},
	{
		// Chunk-parallel .din ingest straight into a shard partition,
		// then set-sharded DEW passes.
		name:   "dewsim-sharded",
		tool:   "dewsim",
		input:  &input{app: "CJPEG", file: "cjpeg.din", n: 2_000_000, quickN: 20_000},
		args:   []string{"-trace", "{trace}", "-assoc", "4", "-maxlog", "14", "-blocks", "4,16,64", "-shards", "2", "-csv"},
		oracle: oracleRows,
	},
	{
		// The same trace layer carrying request kinds: kind-channel
		// ingest plus the sharded write-through/no-write-allocate
		// reference replay.
		name:   "refsim-write",
		tool:   "refsim",
		input:  &input{app: "CJPEG", file: "cjpeg.din", n: 2_000_000, quickN: 20_000},
		args:   []string{"-trace", "{trace}", "-sets", "1024", "-assoc", "4", "-block", "16", "-write", "wt", "-alloc", "nwa", "-shards", "2"},
		oracle: oracleRefsim,
	},
	{
		// The paper's Tables 1-4 and Figures 5-6, serially: reference
		// passes dominate, and every finished cell is published to an
		// empty cache.
		name:   "sweep-cold",
		tool:   "experiments",
		args:   []string{"-all", "-requests", "{requests}", "-seed", "{seed}", "-maxlog", "14", "-cache", "{cache}", "-quiet", "-csv"},
		cache:  freshCache,
		oracle: oracleSweep,
	},
	{
		// The same command served from a populated cache: result-tier
		// loads plus one live re-check per batch, so process start-up
		// and rendering are visible. The sweep's seed is fixed: it
		// decides, through the traces' content digests, which cell each
		// batch re-simulates, and those two cells cost more than half of
		// a warm run, so a seed-driven choice would swamp the noise.
		name:   "sweep-warm",
		tool:   "experiments",
		args:   []string{"-all", "-requests", "{requests}", "-seed", "1", "-maxlog", "14", "-cache", "{cache}", "-quiet", "-csv"},
		cache:  warmCache,
		oracle: oracleSweep,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// expand substitutes the run's trace file, cache directory, seed and
// request count into the workload's flags.
func (w workload) expand(trace, cacheDir string, seed uint64, quick bool) []string {
	requests := sweepRequests
	if quick {
		requests = sweepQuickRequests
	}
	out := make([]string, len(w.args))
	for i, a := range w.args {
		switch a {
		case "{trace}":
			a = trace
		case "{cache}":
			a = cacheDir
		case "{seed}":
			a = strconv.FormatUint(seed, 10)
		case "{requests}":
			a = strconv.Itoa(requests)
		}
		out[i] = a
	}
	return out
}
