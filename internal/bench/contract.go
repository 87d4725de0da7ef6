package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/smr"
)

// This file is the contract table behind `nbrbench -assert-bound`: a fixed
// lineup of cells, each with a name, its parameters, the metrics it prints
// and the named contracts it must keep. The contracts are host-independent —
// counters and counter ratios, never wall-clock — so a violation means a
// retire path outran its watermark, a drain leaked, or the recovery path
// went dead, on any machine. Speed is measured elsewhere (perfbench).

// Outcome is what one contract cell measured: everything its checks read.
type Outcome struct {
	Bound          int    // declared garbage bound (smr.Unbounded for none)
	GarbagePeak    uint64 // largest garbage the run's sampler saw
	Retired, Freed uint64 // after the cell's drain (runtime and resize cells)
	Staged         int    // records left in the hub's free staging after the drain
	Fallbacks      uint64 // quarantined slots reused without two-round aging
	Reaped         uint64 // leases the watchdog revoked
	// PerRecord is the scheme-side stamps+scans per retired record (resize
	// cells), and VersusPerRecord the same figure of the cell named by
	// Cell.Versus, filled in by the table runner.
	PerRecord, VersusPerRecord float64
	// Metrics is the cell's printed summary; Tail the flight-recorder tail
	// printed under a violation (runtime cells only).
	Metrics string
	Tail    string
}

// Check is one named contract: Fail returns "" when o keeps it and the
// violation otherwise.
type Check struct {
	Name string
	Fail func(o Outcome) string
}

// Cell is one row of the contract table.
type Cell struct {
	Name   string
	Params string
	Run    func(d time.Duration, cfg catalog.SchemeConfig) (Outcome, error)
	// Versus names an earlier cell whose PerRecord becomes this cell's
	// VersusPerRecord (the resize-burst A/B).
	Versus string
	Checks []Check
}

// Violations runs every check of c against o.
func (c Cell) Violations(o Outcome) []string {
	var out []string
	for _, ch := range c.Checks {
		if msg := ch.Fail(o); msg != "" {
			out = append(out, ch.Name+": "+msg)
		}
	}
	return out
}

// The named contracts.
var (
	// checkBound: the sampled garbage peak stays within the declared bound
	// (the paper's Lemma 10 for NBR/NBR+).
	checkBound = Check{"bound", func(o Outcome) string {
		if o.Bound != smr.Unbounded && o.GarbagePeak > uint64(o.Bound) {
			return fmt.Sprintf("garbage peak %d > declared bound %d", o.GarbagePeak, o.Bound)
		}
		return ""
	}}
	// checkDrain: the post-run drain frees every retired record.
	checkDrain = Check{"drain", func(o Outcome) string {
		if o.Retired != o.Freed {
			return fmt.Sprintf("drain left retired %d != freed %d", o.Retired, o.Freed)
		}
		return ""
	}}
	// checkStaged: no freed record is stranded in the hub's free staging.
	checkStaged = Check{"staged-frees", func(o Outcome) string {
		if o.Staged != 0 {
			return fmt.Sprintf("%d records stranded in free staging after the drain", o.Staged)
		}
		return ""
	}}
	// checkFallback: forced rounds age every quarantined slot; the unaged
	// no-scanner fallback is never taken.
	checkFallback = Check{"fallback", func(o Outcome) string {
		if o.Fallbacks != 0 {
			return fmt.Sprintf("unaged-slot fallback used %d times", o.Fallbacks)
		}
		return ""
	}}
	// checkReaps: a stall cell's wedged holders are reaped.
	checkReaps = Check{"stall-reaps", func(o Outcome) string {
		if o.Reaped == 0 {
			return "stall injection reaped nothing (revocation path dead)"
		}
		return ""
	}}
	// checkNoReaps: nothing is reaped where nothing wedges.
	checkNoReaps = Check{"no-reaps", func(o Outcome) string {
		if o.Reaped != 0 {
			return fmt.Sprintf("%d holders reaped in a cell with no stall injection", o.Reaped)
		}
		return ""
	}}
	// checkSegment: segment retirement cuts stamps+scans per retired record
	// at least 8× below the per-node baseline on the same burst.
	checkSegment = Check{"segment-8x", func(o Outcome) string {
		if o.PerRecord <= 0 || o.VersusPerRecord/o.PerRecord < 8 {
			return fmt.Sprintf("segment mode cut stamps+scans per record only %.1fx (per-node %.4f, segment %.4f); want >= 8x",
				o.VersusPerRecord/o.PerRecord, o.VersusPerRecord, o.PerRecord)
		}
		return ""
	}}
)

// contractThreads is fixed rather than host-scaled, so the table runs the
// same cells on every machine; 8 keeps the paper's oversubscribed regime (and
// its signal traffic) even on small hosts.
const contractThreads = 8

var runtimeChecks = []Check{checkBound, checkDrain, checkStaged, checkFallback, checkNoReaps}

// Contracts is the fixed contract table, run in order.
var Contracts = []Cell{
	// Fixed-N workload cells: one tree and one list under the paper's main
	// baseline (DEBRA), the fence-heavy baseline (HP, list only) and both NBR
	// variants, plus the subtree-unlinking tree whose merges retire batches.
	workloadCell("dgt", "debra", 200_000, checkBound),
	workloadCell("dgt", "nbr", 200_000, checkBound),
	workloadCell("dgt", "nbr+", 200_000, checkBound),
	workloadCell("lazylist", "debra", 20_000, checkBound),
	workloadCell("lazylist", "hp", 20_000, checkBound),
	workloadCell("lazylist", "nbr+", 20_000, checkBound),
	workloadCell("abtree", "nbr+", 100_000, checkBound),
	// Shared-runtime cells: three structures on one nbr.Runtime, workers
	// oversubscribing its slots; the stall cell wedges holders for the lease
	// watchdog to reap.
	runtimeCell("debra", false, runtimeChecks...),
	runtimeCell("nbr+", false, runtimeChecks...),
	runtimeCell("nbr+", true, checkBound, checkDrain, checkStaged, checkFallback, checkReaps),
	// Resize-burst cells: the segment-retirement A/B. Only a grace-period
	// scheme can run the per-node baseline safely, so the ibr pair carries
	// the asserted ratio; nbr+ runs the segment path under the same checks.
	resizeCell("nbr+", false, "", checkBound, checkDrain),
	resizeCell("ibr", true, "", checkBound, checkDrain),
	resizeCell("ibr", false, "resize/ibr/per-node", checkBound, checkDrain, checkSegment),
}

func workloadCell(ds, scheme string, keyRange uint64, checks ...Check) Cell {
	return Cell{
		Name:   "workload/" + ds + "/" + scheme,
		Params: fmt.Sprintf("threads=%d range=%d 50i-50d", contractThreads, keyRange),
		Run: func(d time.Duration, cfg catalog.SchemeConfig) (Outcome, error) {
			r, err := Run(Workload{
				DS: ds, Scheme: scheme, Threads: contractThreads, KeyRange: keyRange,
				InsPct: 50, DelPct: 50, Duration: d, Prefill: -1, Cfg: cfg,
			})
			return Outcome{
				Bound: r.Bound, GarbagePeak: r.GarbagePeak,
				Metrics: fmt.Sprintf("%.3f Mops/s, %d signals, garbage peak %d (bound %s)",
					r.Mops, r.Stats.Signals, r.GarbagePeak, boundString(r.Bound)),
			}, err
		},
		Checks: checks,
	}
}

func runtimeCell(scheme string, stall bool, checks ...Check) Cell {
	name := "runtime/" + scheme
	if stall {
		name += "/stall"
	}
	w := RuntimeWorkload{
		Structures: []string{"lazylist", "harris", "dgt"}, Scheme: scheme,
		Slots: contractThreads, Workers: contractThreads + contractThreads/2,
		KeyRange: 20_000, SessionOps: 64, Stall: stall,
	}
	return Cell{
		Name: name,
		Params: fmt.Sprintf("%s slots=%d workers=%d range=%d",
			strings.Join(w.Structures, "+"), w.Slots, w.Workers, w.KeyRange),
		Run: func(d time.Duration, cfg catalog.SchemeConfig) (Outcome, error) {
			w := w
			w.Duration, w.Cfg = d, cfg
			r, err := RunRuntime(w)
			return Outcome{
				Bound: r.Bound, GarbagePeak: r.GarbagePeak,
				Retired: r.Stats.Retired, Freed: r.Stats.Freed, Staged: r.Staged,
				Fallbacks: r.Fallbacks, Reaped: r.Reaped, Tail: r.EventTail,
				Metrics: fmt.Sprintf("%d sessions, garbage peak %d (bound %s), %d forced rounds, %d reaped",
					r.Sessions, r.GarbagePeak, boundString(r.Bound), r.ForcedRounds, r.Reaped),
			}, err
		},
		Checks: checks,
	}
}

func resizeCell(scheme string, perNode bool, versus string, checks ...Check) Cell {
	mode := "segment"
	if perNode {
		mode = "per-node"
	}
	return Cell{
		Name:   "resize/" + scheme + "/" + mode,
		Params: fmt.Sprintf("threads=%d keys/thread=1500 threshold=512", contractThreads),
		Run: func(_ time.Duration, cfg catalog.SchemeConfig) (Outcome, error) {
			// A fixed 512-record threshold: the bag needs headroom for whole
			// arrays, or the fill cut degrades to single-record carves and
			// the A/B measures nothing.
			cfg.Threshold = 512
			r, err := RunResizeBurst(ResizeBurstWorkload{
				Scheme: scheme, Threads: contractThreads, KeysPerThread: 1500,
				PerNode: perNode, Cfg: cfg,
			})
			st := r.Stats
			return Outcome{
				Bound: r.Bound, GarbagePeak: r.GarbagePeak,
				Retired: st.Retired, Freed: st.Freed,
				PerRecord: st.StampsPerRecord() + st.ScansPerRecord(),
				Metrics: fmt.Sprintf("%d resizes, %d retired in %d segments, %.4f stamps+scans/record",
					r.Resizes, st.Retired, st.Segments, st.StampsPerRecord()+st.ScansPerRecord()),
			}, err
		},
		Versus: versus,
		Checks: checks,
	}
}

func boundString(b int) string {
	if b == smr.Unbounded {
		return "unbounded"
	}
	return fmt.Sprint(b)
}

// RunContracts runs cells (nbrbench passes Contracts) in order, printing one
// line per cell and, under a violated cell, each violation plus its
// flight-recorder tail when it has one. It returns an error naming every
// violation.
func RunContracts(out io.Writer, cells []Cell, d time.Duration, cfg catalog.SchemeConfig) error {
	perRecord := map[string]float64{}
	var violations []string
	for _, c := range cells {
		o, err := c.Run(d, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		perRecord[c.Name] = o.PerRecord
		if c.Versus != "" {
			o.VersusPerRecord = perRecord[c.Versus]
		}
		v := c.Violations(o)
		status := "ok"
		if len(v) > 0 {
			status = "VIOLATED"
		}
		fmt.Fprintf(out, "%-26s %-8s %s: %s\n", c.Name, status, c.Params, o.Metrics)
		for _, msg := range v {
			fmt.Fprintf(out, "    %s\n", msg)
			violations = append(violations, c.Name+" "+msg)
		}
		if len(v) > 0 && o.Tail != "" {
			fmt.Fprintf(out, "    flight recorder tail:\n%s", o.Tail)
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d contract violation(s):\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
	return nil
}
