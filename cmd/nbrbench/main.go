// Command nbrbench regenerates the tables and figures of "NBR:
// Neutralization Based Reclamation" (PPoPP '21). Each -experiment preset
// reproduces one paper exhibit (see DESIGN.md §5 for the full index);
// -custom runs a single workload cell with explicit parameters;
// -assert-bound runs the contract table (garbage bound, drain-to-zero, lease
// reaping, segment amortization) and exits 1 on any violation.
//
// Examples:
//
//	nbrbench -experiment fig3a
//	nbrbench -experiment fig4c -duration 2s
//	nbrbench -list
//	nbrbench -custom -ds lazylist -scheme nbr+ -threadcount 8 -keyrange 20000 -ins 50 -del 50
//	nbrbench -assert-bound -duration 300ms
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nbr/internal/bench"
	"nbr/internal/catalog"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "preset to run (see -list)")
		list       = flag.Bool("list", false, "list experiment presets and exit")
		threads    = flag.String("threads", "", "comma-separated thread sweep (default scales to GOMAXPROCS)")
		duration   = flag.Duration("duration", time.Second, "measurement time per trial (paper: 5s)")
		trials     = flag.Int("trials", 1, "trials per cell, averaged (paper: 3)")
		full       = flag.Bool("full", false, "use the paper's full key ranges (2M/20M)")

		bag     = flag.Int("bag", 1024, "NBR limbo-bag HiWatermark (paper: 32k at 192 threads)")
		lowm    = flag.Float64("lowm", 0.5, "NBR+ LoWatermark fraction")
		sigspin = flag.Int("sigspin", 600, "simulated pthread_kill cost, spin iterations per signal")

		assertBound = flag.Bool("assert-bound", false, "run the contract table (bound, drain, reap and segment-ratio contracts over 13 fixed cells) and exit 1 on any violation; with -custom, fail if the cell's sampled garbage peak exceeds the scheme's declared GarbageBound")

		custom      = flag.Bool("custom", false, "run a single custom cell instead of a preset")
		dsName      = flag.String("ds", "lazylist", "custom: data structure")
		scheme      = flag.String("scheme", "nbr+", "custom: reclamation scheme")
		threadCount = flag.Int("threadcount", runtime.GOMAXPROCS(0), "custom: worker threads")
		keyRange    = flag.Uint64("keyrange", 20_000, "custom: key range")
		ins         = flag.Int("ins", 50, "custom: insert percentage")
		del         = flag.Int("del", 50, "custom: delete percentage")
		stall       = flag.Bool("stall", false, "custom: add one stalled thread (E2)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("  %-16s %s\n", e.Name, e.Desc)
		}
		fmt.Printf("  %-16s %s\n", "table1", "print the applicability matrix (Table 1)")
		return
	}

	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = *bag
	cfg.LoFraction = *lowm
	cfg.SendSpin = *sigspin
	cfg.HandleSpin = *sigspin / 2

	if *assertBound && !*custom {
		// The contract table is fixed (8 threads, host-independent checks);
		// only -duration and the scheme knobs apply to it.
		if *experiment != "" || *threads != "" {
			fmt.Fprintln(os.Stderr, "nbrbench: -assert-bound runs a fixed table; it cannot be combined with -experiment or -threads")
			os.Exit(1)
		}
		fmt.Printf("# contract table: %d cells, duration %v per timed cell\n", len(bench.Contracts), *duration)
		if err := bench.RunContracts(os.Stdout, bench.Contracts, *duration, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "nbrbench:", err)
			os.Exit(1)
		}
		return
	}

	if *custom {
		w := bench.Workload{
			DS: *dsName, Scheme: *scheme, Threads: *threadCount,
			KeyRange: *keyRange, InsPct: *ins, DelPct: *del,
			Duration: *duration, Prefill: -1, Stall: *stall, Cfg: cfg,
		}
		r, err := bench.Run(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbrbench:", err)
			os.Exit(1)
		}
		bound := "unbounded"
		if r.Bound >= 0 {
			bound = fmt.Sprint(r.Bound)
		}
		fmt.Printf("%s/%s threads=%d range=%d %di-%dd: %.3f Mops/s, peak %.2f MB, %d signals, %d neutralized, garbage %d (peak %d, bound %s)\n",
			r.DS, r.Scheme, r.Threads, r.KeyRange, r.InsPct, r.DelPct,
			r.Mops, float64(r.PeakBytes)/(1<<20), r.Stats.Signals,
			r.Stats.Neutralized, r.Stats.Garbage(), r.GarbagePeak, bound)
		if *assertBound && r.BoundExceeded() {
			fmt.Fprintf(os.Stderr, "nbrbench: garbage-bound contract violated: peak %d > declared bound %d\n",
				r.GarbagePeak, r.Bound)
			os.Exit(1)
		}
		return
	}

	if *experiment == "table1" {
		catalog.PrintTable1(os.Stdout)
		return
	}
	e, ok := bench.Lookup(*experiment)
	if !ok {
		fmt.Fprintf(os.Stderr, "nbrbench: unknown experiment %q; use -list\n", *experiment)
		os.Exit(1)
	}

	o := bench.Options{
		Threads:  parseThreads(*threads),
		Duration: *duration,
		Trials:   *trials,
		Full:     *full,
		Cfg:      cfg,
		Out:      os.Stdout,
	}
	fmt.Printf("# %s — %s\n# threads=%v duration=%v trials=%d full=%v (GOMAXPROCS=%d)\n",
		e.Name, e.Desc, o.Threads, o.Duration, o.Trials, o.Full, runtime.GOMAXPROCS(0))
	if err := e.Run(o); err != nil {
		fmt.Fprintln(os.Stderr, "nbrbench:", err)
		os.Exit(1)
	}
}

// parseThreads parses "-threads 1,2,4" or derives a host-scaled sweep that
// keeps the paper's oversubscribed regime.
func parseThreads(s string) []int {
	if s != "" {
		var out []int
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "nbrbench: bad -threads entry %q\n", f)
				os.Exit(1)
			}
			out = append(out, n)
		}
		return out
	}
	p := runtime.GOMAXPROCS(0)
	sweep := []int{1}
	for n := 2; n <= 4*p || len(sweep) < 4; n *= 2 {
		sweep = append(sweep, n)
		if n >= 16 && n >= 4*p {
			break
		}
	}
	return sweep
}
