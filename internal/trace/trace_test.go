package trace

import (
	"errors"
	"io"
	"math/rand"
	"testing"
)

func sampleTrace(n int, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(Trace, n)
	for i := range t {
		t[i] = Access{
			Addr: uint64(rng.Int63n(1 << 34)),
			Kind: Kind(rng.Intn(3)),
		}
	}
	return t
}

func TestSliceReader(t *testing.T) {
	tr := sampleTrace(100, 1)
	r := tr.NewSliceReader()
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("ReadAll returned %d accesses, want %d", len(got), len(tr))
	}
	for i := range got {
		if got[i] != tr[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], tr[i])
		}
	}
	// Reading past the end keeps returning EOF.
	for i := 0; i < 3; i++ {
		if _, err := r.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("post-EOF Next err = %v, want io.EOF", err)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{DataRead: "read", DataWrite: "write", IFetch: "ifetch"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
		if !k.Valid() {
			t.Errorf("%v should be valid", k)
		}
	}
	if Kind(3).Valid() {
		t.Error("Kind(3) should be invalid")
	}
}

func TestCopy(t *testing.T) {
	tr := sampleTrace(20, 3)
	var dst Trace
	w := writerFunc(func(a Access) error {
		dst = append(dst, a)
		return nil
	})
	n, err := Copy(w, tr.NewSliceReader())
	if err != nil || n != 20 {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	for i := range dst {
		if dst[i] != tr[i] {
			t.Fatalf("copied access %d mismatch", i)
		}
	}
}

type writerFunc func(Access) error

func (f writerFunc) WriteAccess(a Access) error { return f(a) }

func TestCopyPropagatesWriteError(t *testing.T) {
	tr := sampleTrace(5, 4)
	boom := errors.New("boom")
	w := writerFunc(func(Access) error { return boom })
	if _, err := Copy(w, tr.NewSliceReader()); !errors.Is(err, boom) {
		t.Fatalf("Copy err = %v, want boom", err)
	}
}
