package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/mem"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// Snapshot is the machine-readable perf record written by
// `nbrbench -snapshot BENCH_<n>.json`. Committing one per PR gives later
// sessions a trajectory to diff against: the end-to-end workload cells catch
// whole-system regressions, while the reservation-scan and free-burst
// microbenchmarks isolate the two reclaim-path costs this harness tracks
// (scan work per N·R and allocator contention per burst).
type Snapshot struct {
	Schema     string    `json:"schema"`
	CreatedAt  time.Time `json:"created_at"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GOMAXPROCS int       `json:"gomaxprocs"`

	Workloads   []WorkloadPoint    `json:"workloads"`
	Runtime     []RuntimePoint     `json:"runtime,omitempty"`
	ResizeBurst []ResizeBurstPoint `json:"resize_burst,omitempty"`
	Widths      []WidthPoint       `json:"widths,omitempty"`
	ScanCost    []ScanCostPoint    `json:"reservation_scan"`
	FreeBurst   []FreeBurstPoint   `json:"free_burst"`
}

// SnapshotSchema names the current snapshot layout. v2 added the retire
// batch-size distribution per workload cell; v3 added the garbage-bound
// contract columns (declared bound + sampled garbage peak); v4 added the
// multi-structure shared-runtime cells; v5 added the adversarial
// interleaved-retire runtime cells with the hub's dispatch-per-burst
// amortization columns, and the Domain-vs-Runtime width-comparison cells;
// v6 adds the stall-injection runtime cell (wedged holders reaped by
// revocation mid-run) and the recovery columns — reaped, revoked_releases,
// orphans_adopted — on every runtime cell; v7 adds the resize-burst cells
// with the segment-retirement counter ratios (segments_retired,
// stamps_per_record, scans_per_record), recorded for both the segment fast
// path and the dissolve-per-node baseline on the same burst; v8 adds the
// flight-recorder time-domain columns on the runtime cells — admission-wait
// and garbage-residence-age quantiles (power-of-two bucket edges, µs) — which
// are host-dependent context: nbrtrend records their movement but never flags
// them. Older files lack the newer fields; consumers treat them as absent.
const SnapshotSchema = "nbr-perf-snapshot/v8"

// WorkloadPoint is one end-to-end cell.
type WorkloadPoint struct {
	DS       string  `json:"ds"`
	Scheme   string  `json:"scheme"`
	Threads  int     `json:"threads"`
	KeyRange uint64  `json:"key_range"`
	Mops     float64 `json:"mops"`
	PeakMB   float64 `json:"peak_mb"`
	Signals  uint64  `json:"signals"`
	Freed    uint64  `json:"freed"`
	Garbage  uint64  `json:"garbage"`
	P50us    float64 `json:"p50_us"`
	P99us    float64 `json:"p99_us"`
	// Retire batch-size distribution (schema v2): how much of the retire
	// traffic the RetireBatch seam amortizes. BatchHist bucket i counts
	// batches of size in [2^(i-1), 2^i).
	Batches   uint64   `json:"retire_batches,omitempty"`
	BatchP50  int64    `json:"batch_p50,omitempty"`
	BatchP99  int64    `json:"batch_p99,omitempty"`
	BatchMax  int64    `json:"batch_max,omitempty"`
	BatchHist []uint64 `json:"batch_hist,omitempty"`
	// Garbage-bound contract (schema v3): the scheme's declared bound
	// (smr.Unbounded = -1 for the epoch schemes and leaky) and the largest
	// garbage the run's sampler observed. GarbagePeak above a non-negative
	// Bound is a contract violation, not noise.
	Bound       int    `json:"bound"`
	GarbagePeak uint64 `json:"garbage_peak"`
}

// RuntimePoint is one multi-structure shared-runtime cell (schema v4):
// several structures behind one arena hub and one scheme, workers
// oversubscribing a lease registry, one lease session covering every
// structure. Mops includes acquire/release per session; Sessions counts the
// lease recycles the run performed; the bound columns carry the aggregated
// contract; Fallbacks must stay zero (forced rounds cover quarantine
// aging); Drained reports Retired == Freed after the post-run drain.
type RuntimePoint struct {
	Structures   string  `json:"structures"` // "+"-joined, attachment order
	Scheme       string  `json:"scheme"`
	Slots        int     `json:"slots"`
	Workers      int     `json:"workers"`
	KeyRange     uint64  `json:"key_range"`
	Mops         float64 `json:"mops"`
	Sessions     uint64  `json:"sessions"`
	Freed        uint64  `json:"freed"`
	Bound        int     `json:"bound"`
	GarbagePeak  uint64  `json:"garbage_peak"`
	ForcedRounds uint64  `json:"forced_rounds"`
	Fallbacks    uint64  `json:"fallbacks"`
	Drained      bool    `json:"drained"`
	// Free-path amortization (schema v5). Interleaved marks the adversarial
	// round-robin retire cell; DispatchPerBurst is pool FreeBatch calls per
	// reclamation burst the hub received — ~1 is Domain-parity amortization,
	// one-per-run degradation reads as ≈ records/burst. ScanEntries is
	// threads × reservations at the widths the cell's scheme was built with.
	Interleaved      bool    `json:"interleaved,omitempty"`
	HubBursts        uint64  `json:"hub_bursts,omitempty"`
	HubDispatches    uint64  `json:"hub_dispatches,omitempty"`
	DispatchPerBurst float64 `json:"dispatch_per_burst,omitempty"`
	ScanEntries      int     `json:"scan_entries,omitempty"`
	// Holder-death columns (schema v6). Stall marks the stall-injection cell:
	// wedged holders never release and a harness reaper revokes them mid-run,
	// so Reaped must be non-zero there (zero is asserted as a violation by
	// -assert-bound: the revocation path went dead). In every other cell all
	// three columns must read zero — a reap appearing in a non-stall cell
	// means a healthy holder was revoked, which nbrtrend always flags
	// (counter, not timing: host-independent).
	Stall           bool   `json:"stall,omitempty"`
	Reaped          uint64 `json:"reaped"`
	RevokedReleases uint64 `json:"revoked_releases"`
	OrphansAdopted  uint64 `json:"orphans_adopted"`
	// Time-domain columns (schema v8), from the cell's flight recorder:
	// admission wait (first refusal → admitted) and garbage residence age
	// (sampled retire → free) quantiles in microseconds. These are
	// power-of-two bucket edges, so two hosts disagree only by bucket; they
	// are still wall-clock and therefore host-dependent — nbrtrend shows
	// their movement as context and never flags it.
	AdmitWaitP50us  float64 `json:"admit_wait_p50_us,omitempty"`
	AdmitWaitP99us  float64 `json:"admit_wait_p99_us,omitempty"`
	GarbageAgeP50us float64 `json:"garbage_age_p50_us,omitempty"`
	GarbageAgeP99us float64 `json:"garbage_age_p99_us,omitempty"`
}

// ResizeBurstPoint is one resize-burst cell (schema v7): an insert-only
// storm on the resizable hash map whose retire stream is purely whole bucket
// arrays, run in `segment` mode (one RetireSegment handle per array) or in
// `per-node` mode (the array dissolved and every cell retired individually).
// The ratio columns are pure counters — stamps_per_record is scheme-side
// bookkeeping events per retired record (1.0 means no amortization, the
// per-node floor; Segments/SegRecords is the segment-mode floor) and
// scans_per_record is reclamation scans per retired record — so the A/B
// comparison holds on any host. `nbrbench -assert-bound` requires the
// segment cell's stamps+scans per record to undercut the per-node cell's by
// at least 8×, the bound to have held live through the storm, and the drain
// to reach Retired == Freed.
type ResizeBurstPoint struct {
	Scheme          string  `json:"scheme"`
	Mode            string  `json:"mode"` // "segment" or "per-node"
	Threads         int     `json:"threads"`
	Keys            uint64  `json:"keys"`
	Mops            float64 `json:"mops"`
	Resizes         uint64  `json:"resizes"`
	Retired         uint64  `json:"retired"`
	SegmentsRetired uint64  `json:"segments_retired"`
	SegRecords      uint64  `json:"seg_records"`
	Scans           uint64  `json:"scans"`
	StampsPerRecord float64 `json:"stamps_per_record"`
	ScansPerRecord  float64 `json:"scans_per_record"`
	Bound           int     `json:"bound"`
	GarbagePeak     uint64  `json:"garbage_peak"`
	Drained         bool    `json:"drained"`
}

// WidthPoint is one Domain-vs-Runtime width-comparison cell (schema v5): the
// announcement widths each construction path gives one structure, and the
// measured reservation-scan cost at those widths. With the width registry
// the runtime builds at the structure's declared widths, so the entries gap
// is zero and ns/scan is at parity; a reopened gap (RuntimeEntries >
// DomainEntries) means the runtime is back to conservative global widths and
// is always flagged by nbrtrend, host-independently.
type WidthPoint struct {
	DS              string  `json:"ds"`
	Threads         int     `json:"threads"`
	DomainEntries   int     `json:"domain_entries"`  // threads × declared reservations
	RuntimeEntries  int     `json:"runtime_entries"` // threads × runtime-built reservations
	DomainNsPerScan float64 `json:"domain_ns_per_scan"`
	RuntimeNsScan   float64 `json:"runtime_ns_per_scan"`
}

// ScanCostPoint measures one reservation scan (collect + sort + BagSize
// membership probes) at a given scan width N·R.
type ScanCostPoint struct {
	Threads     int     `json:"threads"`
	Slots       int     `json:"slots"`
	Entries     int     `json:"entries"` // N·R
	Probes      int     `json:"probes"`  // membership checks per scan
	NsPerScan   float64 `json:"ns_per_scan"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// FreeBurstPoint measures allocator throughput under concurrent
// FreeBatch/refill bursts at a given shard count.
type FreeBurstPoint struct {
	Shards     int     `json:"shards"`
	Goroutines int     `json:"goroutines"`
	Burst      int     `json:"burst"`
	NsPerOp    float64 `json:"ns_per_op"` // per alloc+free pair
	MopsPerSec float64 `json:"mops_per_sec"`
}

// snapshotCells is the fixed end-to-end suite: one tree and one list, the
// paper's main baseline (DEBRA), the fence-heavy baseline (HP, list only per
// Table 1 practice), and both NBR variants.
var snapshotCells = []struct {
	ds, scheme string
	keyRange   uint64
}{
	{"dgt", "debra", 200_000},
	{"dgt", "nbr", 200_000},
	{"dgt", "nbr+", 200_000},
	{"lazylist", "debra", 20_000},
	{"lazylist", "hp", 20_000},
	{"lazylist", "nbr+", 20_000},
	// The subtree-unlinking tree: its merge path retires two nodes per
	// RetireBatch, so this cell's batch histogram shows the seam working.
	{"abtree", "nbr+", 100_000},
}

// snapshotThreads is fixed rather than host-scaled so snapshots from
// different machines chart one trajectory; 8 keeps the paper's
// oversubscribed regime (and its signal traffic) even on small containers.
const snapshotThreads = 8

// WriteSnapshot runs the snapshot suite and writes the JSON to path. With
// assertBound it additionally fails on any cell whose sampled garbage peak
// exceeded the scheme's declared GarbageBound (the `nbrbench -assert-bound`
// mode) — the snapshot is still written so the violating numbers are
// inspectable.
func WriteSnapshot(path string, duration time.Duration, cfg catalog.SchemeConfig, assertBound bool) error {
	threads := snapshotThreads
	snap := Snapshot{
		Schema:     SnapshotSchema,
		CreatedAt:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	var violations []string
	for _, c := range snapshotCells {
		r, err := Run(Workload{
			DS: c.ds, Scheme: c.scheme, Threads: threads, KeyRange: c.keyRange,
			InsPct: 50, DelPct: 50, Duration: duration, Prefill: -1, Cfg: cfg,
		})
		if err != nil {
			return fmt.Errorf("snapshot cell %s/%s: %w", c.ds, c.scheme, err)
		}
		snap.Workloads = append(snap.Workloads, WorkloadPoint{
			DS: c.ds, Scheme: c.scheme, Threads: threads, KeyRange: c.keyRange,
			Mops:    r.Mops,
			PeakMB:  float64(r.PeakBytes) / (1 << 20),
			Signals: r.Stats.Signals, Freed: r.Stats.Freed, Garbage: r.Stats.Garbage(),
			P50us: float64(r.LatP50) / 1e3, P99us: float64(r.LatP99) / 1e3,
			Batches: r.Batches, BatchP50: r.BatchP50, BatchP99: r.BatchP99,
			BatchMax: r.BatchMax, BatchHist: r.BatchHist,
			Bound: r.Bound, GarbagePeak: r.GarbagePeak,
		})
		if r.BoundExceeded() {
			violations = append(violations,
				fmt.Sprintf("%s/%s: garbage peak %d > declared bound %d",
					c.ds, c.scheme, r.GarbagePeak, r.Bound))
		}
	}

	// The shared-runtime cells (schema v4): one lease registry and one
	// scheme over three structures, workers oversubscribing the slots, so
	// the snapshot tracks the per-session admission + multi-owner routing
	// cost alongside the fixed-N workloads. Both the paper's main baseline
	// and NBR+ are recorded; schema v5 adds, for each scheme, the
	// adversarial interleaved-retire variant whose round-robin retire stream
	// alternates owners perfectly — the dispatch-per-burst column on that
	// cell is the hub's staging amortization under its worst case. Schema v6
	// adds the stall-injection cell: NBR+ with every stallEvery-th holder
	// wedging lease-held and a reaper revoking it mid-run, so the snapshot
	// tracks reaped-slot recycling under load; the bound and drain-to-zero
	// contracts must hold through holder deaths, and a stall cell that reaps
	// nothing is itself a violation (the revocation path went dead).
	for _, rc := range []struct {
		scheme            string
		interleave, stall bool
	}{
		{"debra", false, false},
		{"debra", true, false},
		{"nbr+", false, false},
		{"nbr+", true, false},
		{"nbr+", false, true},
	} {
		r, err := RunRuntime(RuntimeWorkload{
			Structures: []string{"lazylist", "harris", "dgt"},
			Scheme:     rc.scheme,
			Slots:      snapshotThreads,
			Workers:    snapshotThreads + snapshotThreads/2,
			KeyRange:   20_000,
			SessionOps: 64,
			Duration:   duration,
			Cfg:        cfg,
			Interleave: rc.interleave,
			Stall:      rc.stall,
		})
		if err != nil {
			return fmt.Errorf("snapshot runtime cell %s: %w", rc.scheme, err)
		}
		snap.Runtime = append(snap.Runtime, RuntimePoint{
			Structures: r.StructuresKey(), Scheme: rc.scheme,
			Slots: r.Slots, Workers: r.Workers, KeyRange: r.KeyRange,
			Mops: r.Mops, Sessions: r.Sessions, Freed: r.Stats.Freed,
			Bound: r.Bound, GarbagePeak: r.GarbagePeak,
			ForcedRounds: r.ForcedRounds, Fallbacks: r.Fallbacks,
			Drained:     r.Drained,
			Interleaved: rc.interleave, HubBursts: r.HubBursts,
			HubDispatches: r.HubDispatches, DispatchPerBurst: r.DispatchPerBurst,
			ScanEntries: r.ScanEntries,
			Stall:       rc.stall, Reaped: r.Reaped,
			RevokedReleases: r.RevokedReleases, OrphansAdopted: r.OrphansAdopted,
			AdmitWaitP50us:  float64(r.AdmitWaitP50) / 1e3,
			AdmitWaitP99us:  float64(r.AdmitWaitP99) / 1e3,
			GarbageAgeP50us: float64(r.GarbageAgeP50) / 1e3,
			GarbageAgeP99us: float64(r.GarbageAgeP99) / 1e3,
		})
		cell := r.StructuresKey()
		if rc.interleave {
			cell += "/interleaved"
		}
		if rc.stall {
			cell += "/stall"
		}
		nviol := len(violations)
		if r.BoundExceeded() {
			violations = append(violations,
				fmt.Sprintf("runtime %s/%s: garbage peak %d > declared bound %d",
					cell, rc.scheme, r.GarbagePeak, r.Bound))
		}
		if !r.Drained {
			violations = append(violations,
				fmt.Sprintf("runtime %s/%s: drain left retired %d != freed %d (or staging non-empty)",
					cell, rc.scheme, r.Stats.Retired, r.Stats.Freed))
		}
		if rc.stall && r.Reaped == 0 {
			violations = append(violations,
				fmt.Sprintf("runtime %s/%s: stall injection reaped nothing (revocation path dead)",
					cell, rc.scheme))
		}
		if !rc.stall && r.Reaped != 0 {
			violations = append(violations,
				fmt.Sprintf("runtime %s/%s: %d holders reaped in a cell with no stall injection",
					cell, rc.scheme, r.Reaped))
		}
		// Dump-on-violation: a runtime cell that broke its contract embeds
		// its flight-recorder tail in the report, so `nbrbench -assert-bound`
		// fails with a timeline that names the stalled thread and its open
		// read phase rather than a bare counter mismatch.
		if len(violations) > nviol && r.EventTail != "" {
			violations = append(violations,
				fmt.Sprintf("flight recorder tail for runtime %s/%s:\n%s",
					cell, rc.scheme, indentLines(r.EventTail, "    ")))
		}
	}

	// The resize-burst cells (schema v7): the segment-retirement A/B. The
	// same insert-only storm runs under the flagship NBR+ integration
	// (segment mode only — the per-node baseline skips per-record protection,
	// which NBR cannot tolerate) and under IBR in both modes; the IBR pair is
	// the asserted comparison, since only a grace-period scheme can run the
	// dissolve baseline safely.
	resizeCells := []struct {
		scheme  string
		perNode bool
	}{
		{"nbr+", false},
		{"ibr", false},
		{"ibr", true},
	}
	// The cells run at a fixed 512-record threshold regardless of the sweep
	// config: the bag needs headroom for whole arrays, or the fill cut
	// degrades to single-record carves and the A/B measures nothing.
	rcfg := cfg
	rcfg.Threshold = 512
	perRecord := map[bool]float64{} // mode → stamps+scans per retired record (ibr pair)
	for _, rc := range resizeCells {
		r, err := RunResizeBurst(ResizeBurstWorkload{
			Scheme: rc.scheme, Threads: snapshotThreads, KeysPerThread: 1500,
			PerNode: rc.perNode, Cfg: rcfg,
		})
		if err != nil {
			return fmt.Errorf("snapshot resize-burst cell %s: %w", rc.scheme, err)
		}
		mode := "segment"
		if rc.perNode {
			mode = "per-node"
		}
		snap.ResizeBurst = append(snap.ResizeBurst, ResizeBurstPoint{
			Scheme: rc.scheme, Mode: mode, Threads: snapshotThreads,
			Keys: r.Keys, Mops: r.Mops, Resizes: r.Resizes,
			Retired: r.Stats.Retired, SegmentsRetired: r.Stats.Segments,
			SegRecords: r.Stats.SegRecords, Scans: r.Stats.Scans,
			StampsPerRecord: r.Stats.StampsPerRecord(),
			ScansPerRecord:  r.Stats.ScansPerRecord(),
			Bound:           r.Bound, GarbagePeak: r.GarbagePeak,
			Drained: r.Drained,
		})
		if rc.scheme == "ibr" {
			perRecord[rc.perNode] = r.Stats.StampsPerRecord() + r.Stats.ScansPerRecord()
		}
		if r.BoundExceeded() {
			violations = append(violations,
				fmt.Sprintf("resize-burst %s/%s: garbage peak %d > declared bound %d",
					rc.scheme, mode, r.GarbagePeak, r.Bound))
		}
		if !r.Drained {
			violations = append(violations,
				fmt.Sprintf("resize-burst %s/%s: drain left retired %d != freed %d",
					rc.scheme, mode, r.Stats.Retired, r.Stats.Freed))
		}
	}
	// The fast-path claim itself, as a counter ratio: segment retirement must
	// cut the scheme-side stamps+scans per retired record by at least 8× on
	// the same burst under the same scheme.
	if seg, pn := perRecord[false], perRecord[true]; seg > 0 && pn/seg < 8 {
		violations = append(violations,
			fmt.Sprintf("resize-burst ibr: segment mode reduced stamps+scans per record only %.1fx (per-node %.4f, segment %.4f); want >= 8x",
				pn/seg, pn, seg))
	}

	// The width-comparison cells (schema v5): for structures at both ends of
	// the declared-reservation range, the scan entries and ns/scan a Domain
	// gets (exact declared widths) vs what a Runtime hosting only that
	// structure builds through the width registry. The gap must stay closed.
	for _, name := range []string{"lazylist", "dgt"} {
		wp, err := measureWidths(name, snapshotThreads)
		if err != nil {
			return fmt.Errorf("snapshot width cell %s: %w", name, err)
		}
		snap.Widths = append(snap.Widths, wp)
	}

	for _, dim := range []struct{ threads, slots int }{
		{2, 4}, {8, 4}, {32, 4}, {64, 8}, {192, 4},
	} {
		snap.ScanCost = append(snap.ScanCost, measureScanCost(dim.threads, dim.slots))
	}

	for _, shards := range []int{1, 2, 4, 8} {
		snap.FreeBurst = append(snap.FreeBurst, measureFreeBurst(shards, 8, 256))
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if assertBound && len(violations) > 0 {
		return fmt.Errorf("garbage-bound contract violated in %d cell(s):\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	return nil
}

// indentLines prefixes every non-empty line of s, for embedding a
// flight-recorder tail inside a violation report.
func indentLines(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n")
}

// measureScanCost times the reclaim-path scan primitive: snapshot N·R
// announcement slots into the flat sorted scratch, then probe it once per
// bag record, exactly the work reclaimFreeable does per reclamation. Since
// the dynamic-membership refactor the collection walks the active mask, so
// the measurement runs with every slot active — the saturated fixed-N case
// whose cost the mask must not tax.
func measureScanCost(threads, slots int) ScanCostPoint {
	const probes = 1024
	announce := make([]smr.Pad64, threads*slots)
	for i := range announce {
		announce[i].Store(uint64(2*i + 2))
	}
	active := sigsim.FullActiveSet(threads)
	set := smr.NewScanSet(len(announce))
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set.CollectRows(announce, slots, active)
			for k := 0; k < probes; k++ {
				set.Contains(uint64(2*k + 1))
			}
		}
	})
	return ScanCostPoint{
		Threads: threads, Slots: slots, Entries: len(announce), Probes: probes,
		NsPerScan:   float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// measureWidths builds one width-comparison cell: the Domain side uses the
// structure's own declared widths, the Runtime side the widths the shared
// runtime's width registry resolves for a runtime hosting exactly that
// structure (the same fold nbr.NewRuntime + NewSet performs). Scan cost is
// measured at each side's threads × reservations entries.
func measureWidths(name string, threads int) (WidthPoint, error) {
	domainReq, err := catalog.DSRequirements(name)
	if err != nil {
		return WidthPoint{}, err
	}
	runtimeReq, err := catalog.MaxRequirements([]string{name})
	if err != nil {
		return WidthPoint{}, err
	}
	domain := measureScanCost(threads, domainReq.Reservations)
	rt := measureScanCost(threads, runtimeReq.Reservations)
	return WidthPoint{
		DS: name, Threads: threads,
		DomainEntries: domain.Entries, RuntimeEntries: rt.Entries,
		DomainNsPerScan: domain.NsPerScan, RuntimeNsScan: rt.NsPerScan,
	}, nil
}

type burstRec struct{ _ [4]uint64 }

// measureFreeBurst times concurrent alloc-burst/FreeBatch cycles against a
// pool with the given shard count; ns/op is one alloc+free pair. The loop
// itself is mem.BurstChurn, shared with BenchmarkFreeBurst so snapshots and
// `go test -bench FreeBurst` measure the same thing.
func measureFreeBurst(shards, goroutines, burst int) FreeBurstPoint {
	r := testing.Benchmark(func(b *testing.B) {
		p := mem.NewPool[burstRec](mem.Config{MaxThreads: goroutines, CacheSize: 64, Shards: shards})
		b.ResetTimer()
		mem.BurstChurn(p, goroutines, burst, b.N)
	})
	ns := float64(r.NsPerOp())
	point := FreeBurstPoint{Shards: shards, Goroutines: goroutines, Burst: burst, NsPerOp: ns}
	if ns > 0 {
		point.MopsPerSec = 1e3 / ns
	}
	return point
}
