package trace

import (
	"math"
	"math/rand"
	"testing"
)

// shardTestStream materializes a mixed-locality trace: strides so runs
// of weight > 1 appear, and jumps so every shard sees traffic.
func shardTestStream(t *testing.T, n int, seed int64, blockSize int) *BlockStream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := make(Trace, n)
	var addr uint64
	for i := range tr {
		switch rng.Intn(3) {
		case 0:
			addr++ // sequential: same block repeats at blockSize > 1
		default:
			addr = uint64(rng.Intn(1 << 12))
		}
		tr[i] = Access{Addr: addr}
	}
	bs, err := tr.BlockStream(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestShardBlockStreamInto: partitioning through one reused
// destination — across spans of a stream, level changes and kind-mode
// switches — reproduces ShardBlockStream each time, never leaking a
// previous call's runs.
func TestShardBlockStreamInto(t *testing.T) {
	bs := shardTestStream(t, 20_000, 9, 4)
	tr := pipelineTrace(rand.New(rand.NewSource(4)), 5000)
	kbs, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var dst ShardStream
	for _, c := range []struct {
		bs  *BlockStream
		log int
	}{{bs, 3}, {kbs, 3}, {bs, 1}, {kbs, 5}, {bs, 0}, {bs, 3}} {
		for _, span := range SplitSpans(c.bs, 997) {
			want, err := ShardBlockStream(&span.BlockStream, c.log)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ShardBlockStreamInto(&dst, &span.BlockStream, c.log)
			if err != nil {
				t.Fatal(err)
			}
			if got != &dst || got.Source != &span.BlockStream {
				t.Fatal("ShardBlockStreamInto did not fill its destination over the span")
			}
			sameShardStream(t, got, want)
		}
	}
}

// TestShardZeroAllocs: once the destination's shard columns are sized,
// splitting further spans of the stream allocates nothing — the
// steady state of every sharded span replay.
func TestShardZeroAllocs(t *testing.T) {
	tr := pipelineTrace(rand.New(rand.NewSource(12)), 40_000)
	for _, kinds := range []bool{false, true} {
		bs, err := tr.BlockStream(4)
		if kinds {
			bs, err = MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		spans := SplitSpans(bs, 2048)
		var dst ShardStream
		for _, s := range spans { // size the columns once
			if _, err := ShardBlockStreamInto(&dst, &s.BlockStream, 3); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(20, func() {
			ShardBlockStreamInto(&dst, &spans[i%len(spans)].BlockStream, 3)
			i++
		})
		if avg != 0 {
			t.Errorf("kinds=%v: %v allocs per steady-state span split, want 0", kinds, avg)
		}
	}
}

// TestShardBlockStreamPartition checks the partition invariants on every
// shard level: per-shard weight conservation against a direct recount of
// the parent, order preservation, ID shifting, and run re-compression
// (no two adjacent entries of a shard share an ID below the overflow
// bound).
func TestShardBlockStreamPartition(t *testing.T) {
	bs := shardTestStream(t, 20_000, 1, 4)
	for _, log := range []int{0, 1, 3, 5} {
		ss, err := ShardBlockStream(bs, log)
		if err != nil {
			t.Fatal(err)
		}
		if ss.NumShards() != 1<<log {
			t.Fatalf("log %d: %d shards", log, ss.NumShards())
		}
		if ss.Source != bs || ss.BlockSize != bs.BlockSize || ss.Log != log {
			t.Fatalf("log %d: stream metadata %v/%d/%d", log, ss.Source == bs, ss.BlockSize, ss.Log)
		}
		if ss.Runs() > bs.Len() {
			t.Errorf("log %d: sharding grew the stream: %d runs from %d", log, ss.Runs(), bs.Len())
		}

		// Exact per-shard weight conservation: sum the parent's runs
		// into each shard independently and compare.
		mask := uint64(1<<log - 1)
		wantAccesses := make([]uint64, 1<<log)
		for i, id := range bs.IDs {
			wantAccesses[id&mask] += uint64(bs.Runs[i])
		}
		var total uint64
		for s := range ss.Shards {
			sh := &ss.Shards[s]
			if sh.Accesses != wantAccesses[s] {
				t.Errorf("log %d shard %d: %d accesses, want %d", log, s, sh.Accesses, wantAccesses[s])
			}
			total += sh.Accesses
			if sh.BlockSize != bs.BlockSize<<log {
				t.Errorf("log %d shard %d: block size %d, want %d", log, s, sh.BlockSize, bs.BlockSize<<log)
			}
			var sum uint64
			for i, w := range sh.Runs {
				if w == 0 {
					t.Fatalf("log %d shard %d: zero-weight run %d", log, s, i)
				}
				sum += uint64(w)
				if i > 0 && sh.IDs[i-1] == sh.IDs[i] &&
					uint64(sh.Runs[i-1])+uint64(w) <= math.MaxUint32 {
					t.Errorf("log %d shard %d: adjacent runs %d and %d share ID %#x without overflow",
						log, s, i-1, i, sh.IDs[i])
				}
			}
			if sum != sh.Accesses {
				t.Errorf("log %d shard %d: runs sum %d, Accesses %d", log, s, sum, sh.Accesses)
			}
		}
		if total != bs.Accesses || ss.Accesses() != bs.Accesses {
			t.Errorf("log %d: shards total %d accesses, parent %d", log, total, bs.Accesses)
		}

		// Order preservation with shifted IDs: expanding each shard and
		// interleaving by shard index must reproduce the parent's
		// per-shard subsequences exactly.
		for s := range ss.Shards {
			sh := &ss.Shards[s]
			var want []uint64 // parent's subsequence for this shard, shifted, run-merged
			for _, id := range bs.IDs {
				if id&mask != uint64(s) {
					continue
				}
				sid := id >> uint(log)
				if n := len(want); n == 0 || want[n-1] != sid {
					want = append(want, sid)
				}
			}
			// The shard's IDs with overflow splits merged back.
			var got []uint64
			for _, sid := range sh.IDs {
				if n := len(got); n == 0 || got[n-1] != sid {
					got = append(got, sid)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("log %d shard %d: %d distinct-run IDs, want %d", log, s, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("log %d shard %d: ID %d is %#x, want %#x", log, s, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardBlockStreamRecompression builds a parent whose adjacent runs
// interleave two shards; each shard must collapse its now-adjacent
// same-ID runs into one weighted run.
func TestShardBlockStreamRecompression(t *testing.T) {
	bs := &BlockStream{BlockSize: 1}
	// a and b differ only in the shard bit: the parent alternates
	// a b a b ..., each shard sees a single block throughout.
	for i := 0; i < 10; i++ {
		bs.push(0x10, 0, 1) // shard 0
		bs.push(0x11, 0, 1) // shard 1
	}
	ss, err := ShardBlockStream(bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		sh := &ss.Shards[s]
		if len(sh.IDs) != 1 || sh.Runs[0] != 10 || sh.IDs[0] != 0x10>>1 {
			t.Errorf("shard %d: IDs %v runs %v, want one run of 10 of %#x", s, sh.IDs, sh.Runs, 0x10>>1)
		}
	}
	if ss.Runs() != 2 {
		t.Errorf("total runs %d, want 2 (parent had %d)", ss.Runs(), bs.Len())
	}
}

// TestShardBlockStreamOverflowSplit: merging may not overflow the uint32
// run counter; the weight must split exactly and conserve.
func TestShardBlockStreamOverflowSplit(t *testing.T) {
	big := uint32(math.MaxUint32 - 2)
	bs := &BlockStream{
		BlockSize: 1,
		IDs:       []uint64{2, 3, 2, 3, 2},
		Runs:      []uint32{big, 1, 4, 1, 1},
		Accesses:  uint64(big) + 1 + 4 + 1 + 1,
	}
	ss, err := ShardBlockStream(bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh0 := &ss.Shards[0] // ids 2 -> shifted 1
	var sum uint64
	for i, w := range sh0.Runs {
		if w == 0 {
			t.Fatalf("zero-weight run %d", i)
		}
		if sh0.IDs[i] != 1 {
			t.Fatalf("run %d: ID %d, want 1", i, sh0.IDs[i])
		}
		sum += uint64(w)
	}
	if want := uint64(big) + 4 + 1; sum != want || sh0.Accesses != want {
		t.Errorf("shard 0 weight %d (Accesses %d), want %d", sum, sh0.Accesses, want)
	}
	if len(sh0.Runs) != 2 {
		t.Errorf("shard 0 has %d runs, want 2 (one overflow split)", len(sh0.Runs))
	}
}

// TestShardBlockStreamBounds rejects out-of-range shard levels.
func TestShardBlockStreamBounds(t *testing.T) {
	bs := shardTestStream(t, 100, 2, 4)
	if _, err := ShardBlockStream(bs, -1); err == nil {
		t.Error("negative shard level accepted")
	}
	if _, err := ShardBlockStream(bs, 23); err == nil {
		t.Error("shard level 23 accepted")
	}
}

// FuzzShardBlockStream checks weight conservation and re-compression on
// arbitrary streams and shard levels.
func FuzzShardBlockStream(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 1, 2, 2}, uint8(1))
	f.Add([]byte{0, 0, 0, 0}, uint8(0))
	f.Add([]byte{255, 1, 255, 2, 255, 3}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, log uint8) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		bs := &BlockStream{BlockSize: 1}
		for _, b := range raw {
			bs.push(uint64(b), 0, 1)
		}
		s := int(log % 6)
		ss, err := ShardBlockStream(bs, s)
		if err != nil {
			t.Fatal(err)
		}
		mask := uint64(1<<s - 1)
		want := make([]uint64, 1<<s)
		for i, id := range bs.IDs {
			want[id&mask] += uint64(bs.Runs[i])
		}
		for t2 := range ss.Shards {
			var sum uint64
			for i, w := range ss.Shards[t2].Runs {
				if w == 0 {
					t.Fatalf("shard %d: zero-weight run %d", t2, i)
				}
				sum += uint64(w)
			}
			if sum != want[t2] || ss.Shards[t2].Accesses != want[t2] {
				t.Fatalf("shard %d: weight %d (Accesses %d), want %d",
					t2, sum, ss.Shards[t2].Accesses, want[t2])
			}
		}
	})
}
