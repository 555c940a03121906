package workload

import (
	"fmt"
	"sort"

	"dew/internal/trace"
)

// App identifies one of the six Mediabench programs of Table 2.
type App struct {
	// Name is the short name used throughout the paper's tables
	// ("CJPEG", "DJPEG", "G721 Enc", "G721 Dec", "MPEG2 Enc",
	// "MPEG2 Dec").
	Name string
	// Description says what the modelled program does.
	Description string
	// PaperRequests is the trace length the paper reports in Table 2.
	PaperRequests uint64
	// build constructs the app's generator for a seed.
	build func(seed uint64) Generator
}

// Generator returns the app's deterministic access-stream generator.
func (a App) Generator(seed uint64) Generator { return a.build(seed) }

// DefaultRequests returns the scaled-down default trace length used by
// the experiment harness: PaperRequests/64, clamped to [100k, 4M] so the
// full Table 3 sweep completes on a laptop while preserving each trace's
// relative weight. Pass an explicit request count to override.
func (a App) DefaultRequests() uint64 {
	n := a.PaperRequests / 64
	const lo, hi = 100_000, 4_000_000
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

// The six Mediabench models. Each composes an instruction stream with the
// program's characteristic data streams; the instruction:data interleave
// ratio (roughly 2:1) matches in-order embedded cores, where every
// instruction fetch is a memory request.
var apps = map[string]App{}

func register(a App) App {
	apps[a.Name] = a
	return a
}

// CJPEG models JPEG encoding: tile-order (8×8) reads of the source image,
// quantizer/Huffman table lookups, sequential writes of the compressed
// stream, moderate loop nesting.
var CJPEG = register(App{
	Name:          "CJPEG",
	Description:   "JPEG encoder: blocked 8x8 image reads, table lookups, bitstream writes",
	PaperRequests: 25_680_911,
	build: func(seed uint64) Generator {
		ifetch := NewLoopIFetch(seed+1, textBase, 48, 24, 24)
		image := NewBlocked2D(heapBase, 1024, 768, 1, 8, trace.DataRead)
		tables := NewTableLookup(seed+2, dataBase, 512, 4, 0.12, 0.85, trace.DataRead)
		out := NewSequential(heapBase+0x0100_0000, 1, 1<<20, trace.DataWrite)
		stack := NewStackFrames(seed+3, 64, 12)
		data := NewMix(seed+4,
			Weighted{image, 5},
			Weighted{tables, 3},
			Weighted{out, 2},
			Weighted{stack, 2},
		)
		return NewInterleave([]Generator{ifetch, data}, []int{2, 1})
	},
})

// DJPEG models JPEG decoding: sequential reads of the compressed stream,
// table lookups, tile-order writes of the decoded image. It is the
// shortest, most cache-friendly trace (the paper's best speed-ups).
var DJPEG = register(App{
	Name:          "DJPEG",
	Description:   "JPEG decoder: bitstream reads, table lookups, blocked 8x8 image writes",
	PaperRequests: 7_617_458,
	build: func(seed uint64) Generator {
		ifetch := NewLoopIFetch(seed+1, textBase, 40, 32, 16)
		in := NewSequential(heapBase+0x0100_0000, 1, 1<<20, trace.DataRead)
		tables := NewTableLookup(seed+2, dataBase, 768, 4, 0.10, 0.90, trace.DataRead)
		image := NewBlocked2D(heapBase, 1024, 768, 1, 8, trace.DataWrite)
		stack := NewStackFrames(seed+3, 64, 10)
		data := NewMix(seed+4,
			Weighted{in, 3},
			Weighted{tables, 3},
			Weighted{image, 4},
			Weighted{stack, 2},
		)
		return NewInterleave([]Generator{ifetch, data}, []int{2, 1})
	},
})

// G721Enc models G.721 ADPCM encoding: a tight sample loop over a PCM
// stream with step-size table lookups and a small predictor state — tiny
// working set, very long trace.
var G721Enc = register(App{
	Name:          "G721 Enc",
	Description:   "G.721 ADPCM encoder: sequential sample loop, step tables, small state",
	PaperRequests: 154_999_563,
	build: func(seed uint64) Generator {
		ifetch := NewLoopIFetch(seed+1, textBase, 96, 64, 6)
		samples := NewSequential(heapBase, 2, 1<<22, trace.DataRead)
		state := NewTableLookup(seed+2, dataBase, 32, 4, 0.5, 0.95, trace.DataWrite)
		steps := NewTableLookup(seed+3, dataBase+0x1000, 49, 4, 0.25, 0.80, trace.DataRead)
		out := NewSequential(heapBase+0x0080_0000, 1, 1<<21, trace.DataWrite)
		data := NewMix(seed+4,
			Weighted{samples, 4},
			Weighted{state, 3},
			Weighted{steps, 3},
			Weighted{out, 1},
		)
		return NewInterleave([]Generator{ifetch, data}, []int{3, 1})
	},
})

// G721Dec mirrors G721Enc with the stream direction reversed.
var G721Dec = register(App{
	Name:          "G721 Dec",
	Description:   "G.721 ADPCM decoder: sequential code reads, step tables, sample writes",
	PaperRequests: 154_856_346,
	build: func(seed uint64) Generator {
		ifetch := NewLoopIFetch(seed+1, textBase, 90, 64, 6)
		in := NewSequential(heapBase+0x0080_0000, 1, 1<<21, trace.DataRead)
		state := NewTableLookup(seed+2, dataBase, 32, 4, 0.5, 0.95, trace.DataWrite)
		steps := NewTableLookup(seed+3, dataBase+0x1000, 49, 4, 0.25, 0.80, trace.DataRead)
		samples := NewSequential(heapBase, 2, 1<<22, trace.DataWrite)
		data := NewMix(seed+4,
			Weighted{in, 2},
			Weighted{state, 3},
			Weighted{steps, 3},
			Weighted{samples, 2},
		)
		return NewInterleave([]Generator{ifetch, data}, []int{3, 1})
	},
})

// MPEG2Enc models MPEG-2 encoding, dominated by motion estimation over
// reference frames: a multi-megabyte working set with strided, scattered
// reads — the largest and least cache-friendly trace in the suite.
var MPEG2Enc = register(App{
	Name:          "MPEG2 Enc",
	Description:   "MPEG-2 encoder: motion search over reference frames, DCT tiles, bitstream writes",
	PaperRequests: 3_738_851_450,
	build: func(seed uint64) Generator {
		ifetch := NewLoopIFetch(seed+1, textBase, 64, 16, 48)
		motion := NewMotionSearch(seed+2, heapBase, heapBase+0x0200_0000, 1920, 1088, 24)
		dct := NewBlocked2D(heapBase+0x0400_0000, 1920, 1088, 1, 8, trace.DataRead)
		chase := NewPointerChase(seed+3, heapBase+0x0600_0000, 1<<15, 64)
		out := NewSequential(heapBase+0x0700_0000, 1, 1<<22, trace.DataWrite)
		stack := NewStackFrames(seed+4, 128, 16)
		data := NewMix(seed+5,
			Weighted{motion, 6},
			Weighted{dct, 3},
			Weighted{chase, 1},
			Weighted{out, 1},
			Weighted{stack, 1},
		)
		return NewInterleave([]Generator{ifetch, data}, []int{2, 1})
	},
})

// MPEG2Dec models MPEG-2 decoding: sequential bitstream reads, IDCT
// tiles, motion-compensation reads from reference frames and sequential
// frame writes.
var MPEG2Dec = register(App{
	Name:          "MPEG2 Dec",
	Description:   "MPEG-2 decoder: bitstream reads, IDCT tiles, motion compensation, frame writes",
	PaperRequests: 1_411_434_040,
	build: func(seed uint64) Generator {
		ifetch := NewLoopIFetch(seed+1, textBase, 56, 20, 32)
		in := NewSequential(heapBase+0x0700_0000, 1, 1<<22, trace.DataRead)
		idct := NewBlocked2D(heapBase+0x0400_0000, 1920, 1088, 1, 8, trace.DataWrite)
		mc := NewMotionSearch(seed+2, heapBase, heapBase+0x0200_0000, 1920, 1088, 8)
		frame := NewSequential(heapBase, 1, 1920*1088, trace.DataWrite)
		data := NewMix(seed+3,
			Weighted{in, 2},
			Weighted{idct, 3},
			Weighted{mc, 4},
			Weighted{frame, 1},
		)
		return NewInterleave([]Generator{ifetch, data}, []int{2, 1})
	},
})

// Apps returns the six Mediabench models in the paper's Table 2 order.
func Apps() []App {
	return []App{CJPEG, DJPEG, G721Enc, G721Dec, MPEG2Enc, MPEG2Dec}
}

// Lookup finds an app by name. Names match Table 2 ("CJPEG", "G721 Enc",
// ...) and are matched exactly.
func Lookup(name string) (App, error) {
	if a, ok := apps[name]; ok {
		return a, nil
	}
	names := make([]string, 0, len(apps))
	for n := range apps {
		names = append(names, n)
	}
	sort.Strings(names)
	return App{}, fmt.Errorf("workload: unknown app %q (have %v)", name, names)
}
