package cli

import (
	"context"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"dew/internal/cache"
	"dew/internal/trace"
)

// addStreamMemFlag adds the -stream-mem flag refsim and explore share:
// a byte budget that switches the replay onto the bounded span
// pipeline. baseline names the replay the tool runs at 0, whose results
// the streamed replay matches bit for bit, and zero says what it does.
func addStreamMemFlag(fs *flag.FlagSet, baseline, zero string) *string {
	return fs.String("stream-mem", "0",
		"replay through the bounded streaming span pipeline holding roughly this much stream state resident (e.g. 8MiB) — decode, fold and simulation overlap and results are bit-identical to the "+baseline+"; 0 "+zero+", except that -shards runs always stream (at an 8MiB default budget) and this sets their budget")
}

// parseMemBytes parses a human-readable byte count: a bare decimal
// number of bytes, or a number with a B/KiB/MiB/GiB (or K/M/G) suffix,
// case-insensitive. Used by -stream-mem; 0 is valid and means "off".
func parseMemBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	upper := strings.ToUpper(t)
	mult := int64(1)
	for _, sfx := range []struct {
		s string
		m int64
	}{
		{"GIB", 1 << 30}, {"MIB", 1 << 20}, {"KIB", 1 << 10},
		{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10}, {"B", 1},
	} {
		if strings.HasSuffix(upper, sfx.s) {
			mult = sfx.m
			t = strings.TrimSpace(t[:len(t)-len(sfx.s)])
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		return 0, usagef("bad memory size %q (want e.g. 0, 8388608 or 8MiB)", s)
	}
	if mult > 1 && n > math.MaxInt64/mult {
		return 0, usagef("memory size %q overflows", s)
	}
	return n * mult, nil
}

// spans returns the span pipeline constructor for the trace flags at
// blockSize (engine.Spans.Decode) — the chunk-parallel file fast path
// for -trace, the workload generator stream for -app.
func (tf traceFlags) spans(ctx context.Context, blockSize int, streamMem int64, kinds bool) func() (*trace.StreamPipeline, error) {
	return func() (*trace.StreamPipeline, error) {
		opts := trace.SpanOptions{MemBytes: streamMem, Kinds: kinds}
		if *tf.traceFile != "" {
			return trace.StreamFileSpans(ctx, *tf.traceFile, blockSize, opts)
		}
		r, _, err := tf.open() // only file traces carry a closer
		if err != nil {
			return nil, err
		}
		return trace.StreamSpans(ctx, r, blockSize, opts)
	}
}

// spanNote renders a span replay's resident-stream bound (the second
// result of engine.Plan.Replay) for the tools' provenance lines.
func spanNote(resident int64) string {
	return fmt.Sprintf("streamed, peak %s stream resident, decode overlapped", cache.FormatSize(int(resident)))
}
