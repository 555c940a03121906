// Package cli implements the command-line tools (dewsim, refsim,
// tracegen, explore, experiments) as testable functions. Each cmd/<tool>
// main is a thin wrapper calling the corresponding function here with
// os.Args and real streams; tests drive the same functions with argument
// slices and buffers.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"strings"

	"dew/internal/engine"
	"dew/internal/explore"
	"dew/internal/refsim"
	"dew/internal/store"
	"dew/internal/trace"
	"dew/internal/workload"
)

// Env carries a tool invocation's output streams.
type Env struct {
	Stdout io.Writer
	Stderr io.Writer
}

// usageError marks errors that should be accompanied by flag usage; the
// wrappers exit with status 2 for these.
type usageError struct{ error }

// IsUsage reports whether err is a usage-level error (ExitUsage),
// anywhere in its wrap chain.
func IsUsage(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

func usagef(format string, args ...interface{}) error {
	return usageError{fmt.Errorf(format, args...)}
}

// resolveShards resolves a -shards count: negative is a usage error,
// and 0 asks for the fan-out matched to the machine alone — the
// largest power of two not above GOMAXPROCS, 1 (sharding off) on a
// single core, where a parallel pass cannot win.
func resolveShards(n int) (int, error) {
	switch {
	case n < 0:
		return 0, usagef("-shards must be at least 0")
	case n > 0:
		return n, nil
	}
	return 1 << (bits.Len(uint(runtime.GOMAXPROCS(0))) - 1), nil
}

// traceFlags is the common "-trace file or -app model" input selection
// shared by dewsim, refsim and explore.
type traceFlags struct {
	traceFile *string
	appName   *string
	n         *uint64
	seed      *uint64
}

func addTraceFlags(fs *flag.FlagSet) traceFlags {
	return traceFlags{
		traceFile: fs.String("trace", "", "trace file to simulate (.din/.dtb, optionally .gz)"),
		appName:   fs.String("app", "", "workload model to generate instead of -trace"),
		n:         fs.Uint64("n", 0, "requests when using -app (0 = app default)"),
		seed:      fs.Uint64("seed", 1, "generator seed for -app"),
	}
}

// open resolves the flags into a streaming reader. The returned closer is
// non-nil only for file-backed traces.
func (tf traceFlags) open() (trace.Reader, io.Closer, error) {
	switch {
	case *tf.traceFile != "":
		return trace.OpenFile(*tf.traceFile)
	case *tf.appName != "":
		app, err := workload.Lookup(*tf.appName)
		if err != nil {
			return nil, nil, err
		}
		count := *tf.n
		if count == 0 {
			count = app.DefaultRequests()
		}
		return workload.Stream(app.Generator(*tf.seed), count), nil, nil
	default:
		return nil, nil, usagef("pass -trace FILE or -app NAME")
	}
}

// addCacheFlag adds the -cache flag shared by every stream-replaying
// tool. An empty value falls back to $DEW_CACHE; both empty disables
// the artifact store.
func addCacheFlag(fs *flag.FlagSet) *string {
	return fs.String("cache", "", "content-addressed artifact cache directory holding finished simulation results (default $DEW_CACHE; empty = no cache)")
}

// openCache resolves the -cache flag (falling back to $DEW_CACHE) into
// an artifact store; a nil store means caching is off.
func openCache(dir string) (*store.Store, error) {
	if dir == "" {
		dir = os.Getenv("DEW_CACHE")
	}
	if dir == "" {
		return nil, nil
	}
	return store.Open(dir, store.Options{})
}

// sourceID derives the cache identity of the selected trace input: a
// content digest for files, the (name, seed, count) triple for
// generated workloads. The file digest reads the file once — cheap
// next to the decode it lets a warm run skip.
func (tf traceFlags) sourceID() (string, error) {
	switch {
	case *tf.traceFile != "":
		return store.FileID(*tf.traceFile)
	case *tf.appName != "":
		app, err := workload.Lookup(*tf.appName)
		if err != nil {
			return "", err
		}
		count := *tf.n
		if count == 0 {
			count = app.DefaultRequests()
		}
		return store.AppID(app.Name, *tf.seed, count), nil
	default:
		return "", usagef("pass -trace FILE or -app NAME")
	}
}

// openSourceCache opens the -cache store together with the identity of
// the trace input; both are zero when caching is off.
func (tf traceFlags) openSourceCache(dir string) (*store.Store, string, error) {
	st, err := openCache(dir)
	if st == nil || err != nil {
		return nil, "", err
	}
	id, err := tf.sourceID()
	return st, id, err
}

// engineFlagDoc builds the -engine usage string from the registry.
// Tool passes replay through the engine package's one dispatch seam
// (engine.TimedRun → engine.Replay), so a newly registered engine is
// immediately drivable from every tool.
func engineFlagDoc() string {
	return fmt.Sprintf("simulation engine: %s", strings.Join(engine.Names(), ", "))
}

// parseWritePolicy maps the -write flag's spellings; "" is the
// write-back default.
func parseWritePolicy(s string) (refsim.WritePolicy, error) {
	switch s {
	case "", "write-back", "wb":
		return refsim.WriteBack, nil
	case "write-through", "wt":
		return refsim.WriteThrough, nil
	}
	return 0, usagef("unknown write policy %q", s)
}

// parseAllocPolicy maps the -alloc flag's spellings; "" is the
// write-allocate default.
func parseAllocPolicy(s string) (refsim.AllocPolicy, error) {
	switch s {
	case "", "write-allocate", "wa":
		return refsim.WriteAllocate, nil
	case "no-write-allocate", "nwa":
		return refsim.NoWriteAllocate, nil
	}
	return 0, usagef("unknown allocation policy %q", s)
}

// fileSource is a lazy explore.Source over a trace file: the file is
// opened only when the source is called, and the reader closes it on
// the first error or EOF. On a warm artifact-cache run the source is
// never called, so the trace file is never opened, let alone decoded.
func fileSource(path string) explore.Source {
	return func() trace.Reader {
		r, closer, err := trace.OpenFile(path)
		if err != nil {
			return errorReader{err}
		}
		return &selfClosingReader{r: r, closer: closer}
	}
}

// errorReader surfaces a deferred open failure through the Reader
// contract.
type errorReader struct{ err error }

func (e errorReader) Next() (trace.Access, error) { return trace.Access{}, e.err }

// selfClosingReader forwards Next and ReadBatch — keeping the chunked
// .din batch fast path visible to consumers — and closes the
// underlying file at the first error or EOF, since a func() Reader
// source has no separate closer to hand back.
type selfClosingReader struct {
	r      trace.Reader
	closer io.Closer
}

func (s *selfClosingReader) Next() (trace.Access, error) {
	a, err := s.r.Next()
	if err != nil {
		s.close()
	}
	return a, err
}

// ReadBatch implements trace.BatchReader, delegating to the underlying
// reader's batch path when it has one and falling back to Next
// otherwise.
func (s *selfClosingReader) ReadBatch(dst []trace.Access) (int, error) {
	if br, ok := s.r.(trace.BatchReader); ok {
		n, err := br.ReadBatch(dst)
		if err != nil {
			s.close()
		}
		return n, err
	}
	for i := range dst {
		a, err := s.r.Next()
		if err != nil {
			s.close()
			if i > 0 && errors.Is(err, io.EOF) {
				return i, nil
			}
			return i, err
		}
		dst[i] = a
	}
	return len(dst), nil
}

func (s *selfClosingReader) close() {
	if s.closer != nil {
		s.closer.Close()
		s.closer = nil
	}
}
