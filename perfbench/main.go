// Command perfbench is the repository benchmark. It drives the public nbr
// API — NewRuntime, NewSet, leases, Set operations, Drain, Stats — with two
// closed-loop workers on one of three workloads, checks the outputs, and
// prints one JSON result line.
//
//	perfbench --workload map-read|tree-churn|requests --seed N --seconds S --trace 0|1
//
// --trace 0 is the untraced pass: the end-to-end metrics. --trace 1 is the
// traced pass: per-layer metrics from spans around the benchmark's calls,
// the public counters, the flight recorder, reference-scheme runs and
// unit-cost cells. README.md maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	name := flag.String("workload", "", "map-read, tree-churn or requests")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload map-read|tree-churn|requests --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("# workload %s seed %d seconds %d trace %d; host: %d CPUs, GOMAXPROCS %d, %d workers, %s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version())
	d := time.Duration(*seconds) * time.Second
	var out output
	var err error
	if *trace == 0 {
		out, err = untracedPass(w, *seed, d)
	} else {
		out, err = tracedPass(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, m := range out.order {
		fmt.Printf("# %-36s %16.4f %s\n", m, out.metrics[m].Value, out.metrics[m].Unit)
	}
	line, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	attempted, failed uint64
	metrics           map[string]metric
	order             []string
}

func (o *output) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	if _, dup := o.metrics[name]; !dup {
		o.order = append(o.order, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o output) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, o.attempted, o.failed, o.metrics}
}

// ratio is a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// The untraced pass builds and prefills the runtime at least minSetups
// times and for at least setupTime; setup_s is the median. A tree-churn
// setup takes under a millisecond, so a fixed small count would leave its
// median to scheduling noise.
const (
	minSetups = 9
	setupTime = time.Second
)

// untracedPass measures the end-to-end metrics on nbr+.
func untracedPass(w workload, seed uint64, d time.Duration) (output, error) {
	var out output
	var times []float64
	var in *instance
	for begin := time.Now(); len(times) < minSetups || time.Since(begin) < setupTime; {
		runtime.GC() // each setup starts from a collected heap
		t0 := time.Now()
		var err error
		if in, err = setup(w, "nbr+", seed, nil); err != nil {
			return out, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC() // the discarded setups must not be collected mid-run
	res, err := run(in, seed, d, modeUntraced)
	if err != nil {
		return out, err
	}
	if err := check(in, res.garbagePeak, nil); err != nil {
		return out, err
	}
	keys := 0
	for _, s := range in.sets {
		keys += s.Len()
	}
	out.attempted, out.failed = res.attempted, res.failed
	out.set("ops_per_s", "1/s", res.opsPerSec())
	out.set("op_p50_ns", "ns", res.opQuantile(0.50))
	out.set("op_p99_ns", "ns", res.opQuantile(0.99))
	out.set("session_p50_us", "us", res.sessionQuantile(0.50)/1e3)
	out.set("session_p90_us", "us", res.sessionQuantile(0.90)/1e3)
	out.set("garbage_peak_records", "count", res.meanWindowPeak())
	out.set("bytes_per_key", "B", ratio(float64(in.rt.MemStats().SlabBytes), float64(keys)))
	out.set("ok_frac", "ratio", 1-ratio(float64(res.failed), float64(res.attempted)))
	out.set("setup_s", "s", median(times))
	for i, win := range res.windows {
		fmt.Printf("# window %d: %.0f ops/s, %d ops and %d sessions timed\n",
			i, float64(win.ops)/win.elapsed.Seconds(), len(win.opLat), len(win.sessLat))
	}
	fmt.Printf("# fail_frac %g; %d setups, %.4f s to %.4f s\n", ratio(float64(res.failed), float64(res.attempted)),
		len(times), slices.Min(times), slices.Max(times))
	return out, nil
}
