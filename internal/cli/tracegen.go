package cli

import (
	"context"
	"flag"
	"fmt"

	"dew/internal/trace"
	"dew/internal/workload"
)

// TraceGen generates a synthetic Mediabench-style trace to a file and/or
// prints its profile.
func TraceGen(_ context.Context, env Env, args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		appName = fs.String("app", "CJPEG", "workload model (Table 2 name)")
		n       = fs.Uint64("n", 0, "number of requests (0 = the app's scaled default)")
		seed    = fs.Uint64("seed", 1, "generator seed")
		out     = fs.String("o", "", "output trace file (.din, .din.gz, .dtb, .dtb.gz)")
		profile = fs.Bool("profile", false, "print the trace profile (request mix, footprint)")
		block   = fs.Int("profile-block", 32, "block size for footprint profiling")
		list    = fs.Bool("list", false, "list available workload models (the paper's six, then the extended ones) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	if *list {
		for _, a := range workload.Apps() {
			fmt.Fprintf(env.Stdout, "%-10s %13d paper requests  %s\n", a.Name, a.PaperRequests, a.Description)
		}
		for _, a := range workload.ExtendedApps() {
			fmt.Fprintf(env.Stdout, "%-10s %28s  %s\n", a.Name, "extended, not in Table 2", a.Description)
		}
		return nil
	}

	app, err := workload.Lookup(*appName)
	if err != nil {
		return err
	}
	count := *n
	if count == 0 {
		count = app.DefaultRequests()
	}

	if *out == "" && !*profile {
		return usagef("nothing to do: pass -o and/or -profile")
	}

	if *out != "" {
		w, closer, err := trace.CreateFile(*out)
		if err != nil {
			return err
		}
		written, err := trace.Copy(w, workload.Stream(app.Generator(*seed), count))
		if err != nil {
			closer.Close()
			return err
		}
		if err := closer.Close(); err != nil {
			return err
		}
		fmt.Fprintf(env.Stdout, "wrote %d accesses of %s (seed %d) to %s\n", written, app.Name, *seed, *out)
	}

	if *profile {
		p, err := trace.ProfileReader(workload.Stream(app.Generator(*seed), count), *block)
		if err != nil {
			return err
		}
		fmt.Fprintf(env.Stdout, "%s (seed %d): %s\n", app.Name, *seed, p)
		fmt.Fprintf(env.Stdout, "footprint: %d bytes across [%#x, %#x]\n", p.FootprintBytes(), p.MinAddr, p.MaxAddr)
	}
	return nil
}
