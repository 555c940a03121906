package cli

import (
	"context"
	"flag"
	"fmt"

	"dew/internal/report"
)

// Dew is the umbrella tool: maintenance subcommands that are about the
// toolchain's shared state rather than any one simulation. Today that
// is the content-addressed result cache the simulating tools populate
// ("dew cache stats|gc|clear").
func Dew(ctx context.Context, env Env, args []string) error {
	if len(args) == 0 {
		return usagef("usage: dew cache {stats|gc|clear} [flags]")
	}
	switch args[0] {
	case "cache":
		return cacheCmd(ctx, env, args[1:])
	default:
		return usagef("unknown subcommand %q (have: cache)", args[0])
	}
}

// cacheCmd inspects and maintains an artifact cache directory:
//
//	dew cache stats  — what is on disk: live result entries, dead files
//	                   (quarantined entries, stream entries of earlier
//	                   builds) and temp files
//	dew cache gc     — remove dead and abandoned temp files, then evict
//	                   least-recently-used entries down to -max-bytes
//	                   (0 keeps every live entry), reporting files
//	                   removed and bytes reclaimed
//	dew cache clear  — remove everything
func cacheCmd(ctx context.Context, env Env, args []string) error {
	if len(args) == 0 {
		return usagef("usage: dew cache {stats|gc|clear} [flags]")
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("dew cache "+verb, flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	cacheDir := addCacheFlag(fs)
	maxBytes := fs.Int64("max-bytes", 0, "gc: evict least-recently-used entries until the cache fits this many bytes (0 = keep all live entries)")
	if err := fs.Parse(rest); err != nil {
		return usageError{err}
	}
	st, err := openCache(*cacheDir)
	if err != nil {
		return err
	}
	if st == nil {
		return usagef("no cache directory: pass -cache DIR or set DEW_CACHE")
	}

	switch verb {
	case "stats":
		ds, err := st.DiskStats()
		if err != nil {
			return err
		}
		tbl := report.NewTable("", "what", "count", "bytes")
		tbl.AddRow("result entries", ds.Entries, ds.Bytes)
		tbl.AddRow("dead (gc reclaims)", ds.Quarantined, ds.QuarantinedBytes)
		tbl.AddRow("temp", ds.Temp, "-")
		if err := tbl.Render(env.Stdout); err != nil {
			return err
		}
		_, err = fmt.Fprintf(env.Stdout, "\ncache %s: %d entries, %d bytes\n", st.Dir(), ds.Entries, ds.Bytes)
		return err
	case "gc":
		removed, reclaimed, err := st.GC(*maxBytes)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(env.Stdout, "cache %s: gc removed %d files, reclaimed %d bytes\n",
			st.Dir(), removed, reclaimed)
		return err
	case "clear":
		removed, reclaimed, err := st.Clear()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(env.Stdout, "cache %s: cleared %d files, reclaimed %d bytes\n",
			st.Dir(), removed, reclaimed)
		return err
	default:
		return usagef("unknown cache verb %q (have: stats, gc, clear)", verb)
	}
}
