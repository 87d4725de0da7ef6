package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"
)

// spanDir is where the traced pass writes its spans, relative to the
// checkout root run.sh starts the benchmark from.
const spanDir = ".bench_build"

// leakyCap bounds the leaky reference run on tree-churn: leaky never frees,
// and at one retire per op its slab grows by tens of MB a second.
const leakyCap = time.Second

// subRun is one measured interval of the traced pass on a fresh runtime.
func subRun(w workload, scheme string, seed uint64, d time.Duration, mode int, observe bool, tr *tracer) (*instance, result, error) {
	runtime.GC()
	in, err := setup(w, scheme, seed, tr)
	if err != nil {
		return nil, result{}, err
	}
	in.rt.Observe(observe)
	res, err := run(in, seed, d, mode)
	if err != nil {
		return nil, result{}, err
	}
	if err := check(in, res.garbagePeak, tr); err != nil {
		return nil, result{}, err
	}
	return in, res, nil
}

// histQuantiles is the recorder part of the runtime's Debug() document.
type histQuantiles struct {
	P50 int64 `json:"p50_ns"`
	P99 int64 `json:"p99_ns"`
}

// recorderHists reads the flight recorder's histogram quantiles through the
// public Debug() handler.
func recorderHists(in *instance) (map[string]histQuantiles, error) {
	rec := httptest.NewRecorder()
	in.rt.Debug().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/nbr", nil))
	var doc struct {
		Recorder struct {
			Hists []struct {
				Name string `json:"name"`
				histQuantiles
			} `json:"hists"`
		} `json:"recorder"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("Debug() document: %w", err)
	}
	hs := map[string]histQuantiles{}
	for _, h := range doc.Recorder.Hists {
		hs[h.Name] = h.histQuantiles
	}
	return hs, nil
}

// dsStructures are the structures the ds.<structure>.<op>_ns_p50 metrics
// cover; a structure a workload does not use reports 0.
var dsStructures = []string{"hashmap", "dgt", "lazylist"}

// tracedPass measures the per-layer metrics. Each reference run uses the
// same seed and run length as the nbr+ run (leaky on tree-churn excepted,
// see leakyCap); leaky is not run on requests.
func tracedPass(w workload, seed uint64, d time.Duration) (output, error) {
	var out output
	base, r1, err := subRun(w, "nbr+", seed, d, modeUntraced, false, nil)
	if err != nil {
		return out, err
	}
	tr := &tracer{}
	_, r2, err := subRun(w, "nbr+", seed, d, modeTraced, false, tr)
	if err != nil {
		return out, err
	}
	spans := append(tr.spans, r2.spans...)
	path := fmt.Sprintf("%s/spans-%s.csv", spanDir, w.name)
	if err := writeSpans(path, w.sets, spans); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	sum := summarize(w.sets, spans)
	obsIn, r3, err := subRun(w, "nbr+", seed, d, modeUntraced, true, nil)
	if err != nil {
		return out, err
	}
	hists, err := recorderHists(obsIn)
	if err != nil {
		return out, err
	}
	_, r4, err := subRun(w, "debra", seed, d, modeUntraced, false, nil)
	if err != nil {
		return out, err
	}
	var leaky *result
	if w.longLease {
		ld := d
		if w.name == "tree-churn" {
			ld = min(d, leakyCap)
		}
		_, r5, err := subRun(w, "leaky", seed, ld, modeUntraced, false, nil)
		if err != nil {
			return out, err
		}
		leaky = &r5
	}

	_, width := base.rt.Widths()
	bracket, scan := bracketCell(width), scanCell(width)
	roundtrip, freeBurst := roundtripCell(), freeBurstCell()
	acqRel, err := acquireReleaseCell(w)
	if err != nil {
		return out, err
	}

	ops, sessions := float64(r1.ops()), float64(r1.sessions)
	a, b := r1.after, r1.before
	retired := float64(a.st.Retired - b.st.Retired)
	freed := float64(a.st.Freed - b.st.Freed)
	signals := float64(a.st.Signals - b.st.Signals)
	neutralized := float64(a.st.Neutralized - b.st.Neutralized)
	scans := float64(a.st.Scans - b.st.Scans)
	out.attempted, out.failed = r1.attempted, r1.failed

	out.set("nbr.ns_per_op", "ns", r1.nsPerOp())
	out.set("nbr.session_self_ns_p50", "ns", sum.sessionSelfP50)
	out.set("nbr.acquire_release_ns", "ns", acqRel)
	out.set("nbr.admit_wait_p99_ns", "ns", float64(hists["admission_wait"].P99))
	out.set("smr.forced_rounds_per_session", "count", ratio(float64(a.forced-b.forced), sessions))
	out.set("smr.orphans_adopted_per_session", "count", ratio(float64(a.orphans-b.orphans), sessions))
	out.set("smr.retired_per_op", "count", ratio(retired, ops))
	out.set("smr.garbage_age_p50_ns", "ns", float64(hists["garbage_age"].P50))
	out.set("core.bracket_ns", "ns", bracket)
	out.set("core.scan_ns", "ns", scan)
	out.set("core.signals_per_kop", "count", 1000*ratio(signals, ops))
	out.set("core.scans_per_kop", "count", 1000*ratio(scans, ops))
	out.set("core.neutralized_per_signal", "count", ratio(neutralized, signals))
	out.set("core.freed_per_scan", "count", ratio(freed, scans))
	out.set("core.vs_debra_ratio", "ratio", ratio(r1.nsPerOp(), r4.nsPerOp()))
	out.set("core.debra_ns_per_op", "ns", r4.nsPerOp())
	out.set("sigsim.roundtrip_ns", "ns", roundtrip)
	out.set("sigsim.restart_p50_ns", "ns", float64(hists["signal_latency"].P50))
	out.set("mem.free_burst_ns_per_record", "ns", freeBurst)
	out.set("mem.global_ops_per_kop", "count", 1000*ratio(float64(a.globalOps-b.globalOps), ops))
	for _, s := range dsStructures {
		for _, op := range opNames {
			out.set("ds."+s+"."+op+"_ns_p50", "ns", sum.opP50[s+"."+op])
		}
	}
	// The ledger: what nbr+ costs over leaky per op, against what the unit
	// cells times the per-op counts explain. Every op runs at least one read
	// phase, plus one per neutralization restart.
	var overhead, traversal, attributed float64
	if leaky != nil {
		traversal = leaky.nsPerOp()
		overhead = r1.nsPerOp() - traversal
		attributed = bracket*(1+ratio(neutralized, ops)) + scan*ratio(scans, ops) +
			roundtrip*ratio(signals, ops) + freeBurst*ratio(freed, ops)
	}
	out.set("core.overhead_ns_per_op", "ns", overhead)
	out.set("ds.traversal_ns_per_op", "ns", traversal)
	out.set("ledger.attributed_ns_per_op", "ns", attributed)
	out.set("ledger.residual_ns_per_op", "ns", overhead-attributed)
	out.set("obs.recorder_overhead_ratio", "ratio", ratio(r3.nsPerOp(), r1.nsPerOp()))
	out.set("obs.recorder_on_ns_per_op", "ns", r3.nsPerOp())
	out.set("trace.overhead_ratio", "ratio", ratio(r2.opsPerSec(), r1.opsPerSec()))
	out.set("trace.traced_ops_per_s", "1/s", r2.opsPerSec())
	out.set("trace.untraced_ops_per_s", "1/s", r1.opsPerSec())
	out.set("trace.spans", "count", float64(len(spans)))
	fmt.Printf("# spans: %s (1 session in %d); leaky run: %v\n", path, tracedEvery, leaky != nil)
	return out, nil
}
