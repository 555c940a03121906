// DBS1 wire-format tests: the persistent stream artifact must round
// trip bit-identically (kind channel and uint32 overflow splits
// included), the streaming WriteTo/ReadFrom pair must agree with the
// in-memory MarshalBinary/UnmarshalBinary pair byte for byte, and
// every malformed input — truncations, bit flips, injected I/O faults
// — must surface as a typed error matching ErrCorrupt/ErrTruncated,
// never as a silently-wrong stream.
package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dew/internal/trace"
	"dew/internal/trace/faultreader"
)

// resealCRC computes the trailer for body, letting tests mutate a blob
// and still reach the validators behind the checksum gate.
func resealCRC(body []byte) []byte {
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(body))
	return trailer[:]
}

// streamioTrace is a run-heavy synthetic trace with all three access
// kinds, sized to span several encoder chunks.
func streamioTrace(seed uint64, n int) trace.Trace {
	rng := rand.New(rand.NewSource(int64(seed)))
	tr := make(trace.Trace, n)
	block := uint64(0)
	for i := range tr {
		if rng.Intn(4) == 0 {
			block = uint64(rng.Intn(200))
		}
		tr[i] = trace.Access{Addr: block*64 + uint64(rng.Intn(64)), Kind: trace.Kind(rng.Intn(3))}
	}
	return tr
}

// streamioCases returns named streams covering the format's corners:
// empty, kind-free, kind-preserving, and crafted uint32-overflow run
// splits (adjacent same-ID runs are legal only after a saturated
// weight).
func streamioCases(t testing.TB) map[string]*trace.BlockStream {
	t.Helper()
	tr := streamioTrace(7, 20_000)
	plain, err := trace.MaterializeBlockStream(tr.NewSliceReader(), 64)
	if err != nil {
		t.Fatal(err)
	}
	kinds, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 64)
	if err != nil {
		t.Fatal(err)
	}
	const m = math.MaxUint32
	return map[string]*trace.BlockStream{
		"empty":       {BlockSize: 16},
		"empty-kinds": {BlockSize: 16, Kinds: []trace.KindRun{}},
		"one-run": {BlockSize: 32, IDs: []uint64{42}, Runs: []uint32{3}, Accesses: 3,
			Kinds: []trace.KindRun{{W: [3]uint32{2, 1, 0}, Lead: 1, First: trace.DataRead}}},
		"materialized":       plain,
		"materialized-kinds": kinds,
		"overflow-split": {BlockSize: 16,
			IDs: []uint64{9, 9, 5}, Runs: []uint32{m, 2, 1}, Accesses: m + 3},
		"overflow-split-kinds": {BlockSize: 16,
			IDs: []uint64{9, 9}, Runs: []uint32{m, 2}, Accesses: m + 2,
			Kinds: []trace.KindRun{
				{W: [3]uint32{m - 1, 1, 0}, Lead: 1, First: trace.DataRead},
				{W: [3]uint32{0, 0, 2}, First: trace.IFetch},
			}},
		"huge-ids": {BlockSize: 1 << 30,
			IDs: []uint64{math.MaxUint64, 0, math.MaxUint64}, Runs: []uint32{1, 1, 1}, Accesses: 3},
	}
}

func TestStreamRoundTrip(t *testing.T) {
	for name, bs := range streamioCases(t) {
		t.Run(name, func(t *testing.T) {
			blob, err := bs.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}

			// The streaming encoder must produce the same bytes.
			var buf bytes.Buffer
			n, err := bs.WriteTo(&buf)
			if err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			if n != int64(len(blob)) || !bytes.Equal(buf.Bytes(), blob) {
				t.Fatalf("WriteTo bytes (%d) differ from MarshalBinary (%d)", n, len(blob))
			}

			var got trace.BlockStream
			if err := got.UnmarshalBinary(blob); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(&got, bs) {
				t.Fatalf("round trip is not identity:\ngot  %+v\nwant %+v", &got, bs)
			}
			if got.HasKinds() != bs.HasKinds() {
				t.Fatalf("kind channel presence flipped: got %v", got.HasKinds())
			}

			// The streaming decoder must agree and consume exactly the
			// blob, even with bytes beyond it in the reader.
			var fromStream trace.BlockStream
			rn, err := fromStream.ReadFrom(bytes.NewReader(append(append([]byte{}, blob...), 0xEE)))
			if err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			if rn != int64(len(blob)) {
				t.Fatalf("ReadFrom consumed %d bytes, blob is %d", rn, len(blob))
			}
			if !reflect.DeepEqual(&fromStream, bs) {
				t.Fatalf("ReadFrom stream differs from original")
			}
		})
	}
}

// TestStreamReadFromShortReads drives the streaming decoder through
// single-byte reads — the buffer refill path on every byte.
func TestStreamReadFromShortReads(t *testing.T) {
	bs := streamioCases(t)["materialized-kinds"]
	blob, err := bs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fr := faultreader.New(bytes.NewReader(blob), faultreader.Config{
		Seed: 3, ShortReads: true, TruncateAt: -1, FailAt: -1, FlipAt: -1, StallAt: -1,
	})
	var got trace.BlockStream
	if _, err := got.ReadFrom(fr); err != nil {
		t.Fatalf("ReadFrom under short reads: %v", err)
	}
	if !reflect.DeepEqual(&got, bs) {
		t.Fatal("short-read decode differs from original")
	}
}

// TestStreamUnmarshalBitFlips flips every byte of a valid blob in turn;
// the checksum (or a field check before it on the streaming path) must
// reject every variant with a typed error.
func TestStreamUnmarshalBitFlips(t *testing.T) {
	bs := streamioCases(t)["materialized-kinds"]
	blob, err := bs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(blob); off++ {
		mut := append([]byte{}, blob...)
		mut[off] ^= 0x01
		var got trace.BlockStream
		if err := got.UnmarshalBinary(mut); err == nil {
			t.Fatalf("flip at %d: unmarshal accepted a corrupt blob", off)
		} else if !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("flip at %d: error %v does not match ErrCorrupt", off, err)
		}
	}
}

// TestStreamUnmarshalTruncations cuts a valid blob at every length;
// every prefix must be rejected, and prefixes that pass the up-front
// checks must classify as truncated on the streaming path.
func TestStreamUnmarshalTruncations(t *testing.T) {
	bs := streamioCases(t)["one-run"]
	blob, err := bs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		var got trace.BlockStream
		if err := got.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("cut at %d: unmarshal accepted a truncated blob", cut)
		} else if !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("cut at %d: error %v does not match ErrCorrupt", cut, err)
		}
		var fromStream trace.BlockStream
		if _, err := fromStream.ReadFrom(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("cut at %d: ReadFrom accepted a truncated blob", cut)
		} else if !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("cut at %d: ReadFrom error %v does not match ErrCorrupt", cut, err)
		}
	}
}

// TestStreamReadFromFaults injects I/O faults mid-decode: truncation
// and deferred errors must surface typed (truncation as ErrTruncated)
// and never yield a stream.
func TestStreamReadFromFaults(t *testing.T) {
	bs := streamioCases(t)["materialized-kinds"]
	blob, err := bs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncate", func(t *testing.T) {
		for _, at := range []int64{0, 1, 5, int64(len(blob) / 2), int64(len(blob) - 1)} {
			fr := faultreader.New(bytes.NewReader(blob), faultreader.Config{
				TruncateAt: at, FailAt: -1, FlipAt: -1, StallAt: -1,
			})
			var got trace.BlockStream
			if _, err := got.ReadFrom(fr); !errors.Is(err, trace.ErrTruncated) {
				t.Fatalf("truncate at %d: err = %v, want ErrTruncated", at, err)
			}
		}
	})
	t.Run("io-error", func(t *testing.T) {
		boom := errors.New("disk on fire")
		fr := faultreader.New(bytes.NewReader(blob), faultreader.Config{
			TruncateAt: -1, FailAt: int64(len(blob) / 3), Err: boom, FlipAt: -1, StallAt: -1,
		})
		var got trace.BlockStream
		if _, err := got.ReadFrom(fr); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the injected I/O error", err)
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		for _, at := range []int64{0, 4, 9, int64(len(blob) / 2), int64(len(blob) - 2)} {
			fr := faultreader.New(bytes.NewReader(blob), faultreader.Config{
				TruncateAt: -1, FailAt: -1, FlipAt: at, StallAt: -1,
			})
			var got trace.BlockStream
			if _, err := got.ReadFrom(fr); !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("flip at %d: err = %v, want ErrCorrupt", at, err)
			}
		}
	})
}

// TestStreamUnmarshalRejects pins the validation corners that a
// checksum alone would not catch (each variant is re-checksummed, so
// only the semantic check can reject it).
func TestStreamUnmarshalRejects(t *testing.T) {
	reseal := func(blob []byte) []byte {
		// Recompute the trailer so the mutation reaches the validators.
		body := blob[:len(blob)-4]
		sum := resealCRC(body)
		return append(append([]byte{}, body...), sum...)
	}
	base, err := (&trace.BlockStream{BlockSize: 32, IDs: []uint64{1, 2},
		Runs: []uint32{2, 1}, Accesses: 3}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"bad-magic":   func(b []byte) []byte { b[0] = 'X'; return reseal(b) },
		"bad-version": func(b []byte) []byte { b[4] = 9; return reseal(b) },
		"bad-flags":   func(b []byte) []byte { b[5] = 0x80; return reseal(b) },
		"bad-block":   func(b []byte) []byte { b[6] = 3; return reseal(b) },
		"trailing":    func(b []byte) []byte { return reseal(append(b, 0)) },
		"bad-crc":     func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		// A run count far beyond the remaining input must fail before
		// any column is allocated.
		"run-count-bomb": func(b []byte) []byte {
			return reseal(append(b[:8:8], 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0, 0))
		},
		"zero-run-weight": func(b []byte) []byte { b[11] = 0; return reseal(b) },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			mut := mutate(append([]byte{}, base...))
			var got trace.BlockStream
			if err := got.UnmarshalBinary(mut); !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	t.Run("unmerged-adjacent-runs", func(t *testing.T) {
		// Adjacent same-ID runs without a saturated weight violate the
		// run-compression invariant; encode via a stand-in ID and patch.
		bad := &trace.BlockStream{BlockSize: 32, IDs: []uint64{7, 7},
			Runs: []uint32{2, 1}, Accesses: 3}
		blob, err := bad.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// The encoder checks only geometry; the cross-column invariant
		// is the decoder's to enforce.
		var got trace.BlockStream
		if err := got.UnmarshalBinary(blob); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("access-count-mismatch", func(t *testing.T) {
		bad := &trace.BlockStream{BlockSize: 32, IDs: []uint64{1},
			Runs: []uint32{2}, Accesses: 5}
		blob, err := bad.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got trace.BlockStream
		if err := got.UnmarshalBinary(blob); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-kind-byte", func(t *testing.T) {
		blob, err := (&trace.BlockStream{BlockSize: 32, IDs: []uint64{1},
			Runs: []uint32{1}, Accesses: 1,
			Kinds: []trace.KindRun{{W: [3]uint32{1, 0, 0}, First: trace.DataRead}}}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)-5] = 7 // the last body byte is the run's First kind
		var got trace.BlockStream
		if err := got.UnmarshalBinary(reseal(blob)); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("kind-total-mismatch", func(t *testing.T) {
		bad := &trace.BlockStream{BlockSize: 32, IDs: []uint64{1},
			Runs: []uint32{3}, Accesses: 3,
			Kinds: []trace.KindRun{{W: [3]uint32{1, 0, 0}, First: trace.DataRead}}}
		blob, err := bad.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got trace.BlockStream
		if err := got.UnmarshalBinary(blob); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

// TestStreamMarshalRejectsBadGeometry pins the encoder's own guards.
func TestStreamMarshalRejectsBadGeometry(t *testing.T) {
	for name, bs := range map[string]*trace.BlockStream{
		"zero-block":     {BlockSize: 0},
		"non-pow2-block": {BlockSize: 48},
		"column-skew":    {BlockSize: 16, IDs: []uint64{1}, Runs: nil, Accesses: 1},
		"kind-skew": {BlockSize: 16, IDs: []uint64{1}, Runs: []uint32{1}, Accesses: 1,
			Kinds: []trace.KindRun{}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := bs.MarshalBinary(); err == nil {
				t.Fatal("marshal accepted a malformed stream")
			}
		})
	}
}

// FuzzStreamUnmarshal holds the decoder pair to their contract on
// arbitrary bytes: no panic, typed errors only, and semantic agreement
// — when the allocating decoder accepts a blob the streaming decoder
// must produce the identical stream, and a re-marshal must round trip.
func FuzzStreamUnmarshal(f *testing.F) {
	for _, bs := range streamioCases(f) {
		blob, err := bs.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if len(blob) > 8 {
			cut := append([]byte{}, blob[:len(blob)/2]...)
			f.Add(cut)
			flip := append([]byte{}, blob...)
			flip[len(flip)/3] ^= 0x40
			f.Add(flip)
		}
	}
	f.Add([]byte("DBS1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got trace.BlockStream
		err := got.UnmarshalBinary(data)
		if err != nil {
			if !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("unmarshal error %v does not match ErrCorrupt", err)
			}
			// The streaming decoder may still accept a valid prefix
			// (trailing bytes are the caller's concern there); if it
			// does, that prefix must satisfy the allocating decoder too.
			var fs trace.BlockStream
			if n, rerr := fs.ReadFrom(bytes.NewReader(data)); rerr == nil {
				var prefix trace.BlockStream
				if perr := prefix.UnmarshalBinary(data[:n]); perr != nil {
					t.Fatalf("ReadFrom accepted %d-byte prefix that UnmarshalBinary rejects: %v", n, perr)
				}
				if !reflect.DeepEqual(&fs, &prefix) {
					t.Fatal("decoder pair disagrees on an accepted prefix")
				}
			} else if !errors.Is(rerr, trace.ErrCorrupt) && !isIOError(rerr) {
				t.Fatalf("ReadFrom error %v does not match ErrCorrupt", rerr)
			}
			return
		}
		// Accepted: the streaming decoder must agree byte for byte.
		var fs trace.BlockStream
		n, rerr := fs.ReadFrom(bytes.NewReader(data))
		if rerr != nil || n != int64(len(data)) {
			t.Fatalf("ReadFrom (%d bytes, %v) disagrees with accepting UnmarshalBinary", n, rerr)
		}
		if !reflect.DeepEqual(&fs, &got) {
			t.Fatal("decoder pair disagrees on an accepted blob")
		}
		// And the decoded stream must re-encode losslessly.
		blob, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted stream: %v", err)
		}
		var again trace.BlockStream
		if err := again.UnmarshalBinary(blob); err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if !reflect.DeepEqual(&again, &got) {
			t.Fatal("re-marshal round trip is not identity")
		}
	})
}

func isIOError(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}
