// Command nbrbench regenerates the tables and figures of "NBR:
// Neutralization Based Reclamation" (PPoPP '21). Each -experiment preset
// reproduces one paper exhibit (see DESIGN.md §5 for the full index);
// -custom runs a single workload cell with explicit parameters.
//
// Examples:
//
//	nbrbench -experiment fig3a
//	nbrbench -experiment fig4c -duration 2s
//	nbrbench -list
//	nbrbench -custom -ds lazylist -scheme nbr+ -threadcount 8 -keyrange 20000 -ins 50 -del 50
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

		snapshot = flag.String("snapshot", "", "write a machine-readable perf snapshot JSON to this path (e.g. BENCH_1.json) and exit")

		assertBound = flag.Bool("assert-bound", false, "fail (exit 1) if any run's sampled garbage peak exceeds the scheme's declared GarbageBound; applies to -custom and -snapshot (a violating runtime cell embeds its flight-recorder event tail in the report, naming the thread that held the garbage)")

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

	if *snapshot != "" {
		// The snapshot suite is fixed (8 threads: the end-to-end workload
		// cells, the shared-runtime cells — including the adversarial
		// interleaved-retire variants — the Domain-vs-Runtime width cells,
		// and the scan/burst microbenchmarks) so BENCH_<n>.json files are
		// comparable across PRs; workload flags other than -duration and the
		// scheme knobs do not apply to it.
		if *experiment != "" || *custom || *threads != "" {
			fmt.Fprintln(os.Stderr, "nbrbench: -snapshot runs a fixed suite; it cannot be combined with -experiment, -custom, or -threads")
			os.Exit(1)
		}
		fmt.Printf("# writing perf snapshot to %s (duration %v per cell, fixed 8-thread suite)\n", *snapshot, *duration)
		if err := bench.WriteSnapshot(*snapshot, *duration, cfg, *assertBound); err != nil {
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
