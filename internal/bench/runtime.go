package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/smr"
)

// This file measures the shared-runtime regime: several structures behind
// one mem.Hub, one scheme instance, one lease registry — the substrate the
// public nbr.Runtime wraps (bench cannot import the root package without a
// cycle, so the cell is built from the same internals). The workload is
// lease-per-session over more workers than slots: every session acquires a
// slot, churns every structure under it, and releases, so the measurement
// includes admission, slot recycling, forced-round quarantine aging and the
// multi-owner free routing — the costs a service pays per request.

// RuntimeWorkload is one multi-structure shared-runtime cell.
type RuntimeWorkload struct {
	Structures []string
	Scheme     string
	Slots      int // lease-registry capacity
	Workers    int // concurrent workers; > Slots oversubscribes admission
	KeyRange   uint64
	SessionOps int // operations per lease session, spread across structures
	Duration   time.Duration
	Cfg        catalog.SchemeConfig
	// Interleave selects the adversarial retire pattern: each session walks
	// the structures round-robin doing insert-then-delete pairs, so the
	// retire stream entering the shared bags alternates owners perfectly —
	// the worst case for the hub's free routing (every same-owner run has
	// length one). False keeps the mixed read/write service workload.
	Interleave bool
	// Stall selects the holder-death cell: every stallEvery-th session the
	// worker wedges with its lease held — it never releases — and hands the
	// lease to a harness reaper that revokes it through Registry.Revoke (the
	// shared recovery path, run on the reaper's goroutine mid-measurement)
	// and then issues the zombie's late Release. The cell tracks the cost of
	// recycling reaped slots under load and records the recovery counters.
	Stall bool
}

// stallEvery is the holder-death cadence under Stall: one wedged session per
// this many completed ones, per worker — frequent enough that every slot sees
// reaped-slot recycling within a short run, rare enough that the cell still
// measures throughput rather than pure recovery.
const stallEvery = 8

// RuntimeResult is one measured shared-runtime cell.
type RuntimeResult struct {
	RuntimeWorkload
	Ops      uint64
	Elapsed  time.Duration
	Mops     float64
	Sessions uint64 // completed acquire→ops→release cycles
	// The aggregated garbage-bound contract, as in Result.
	Bound       int
	GarbagePeak uint64
	Stats       smr.Stats
	// Quarantine-aging telemetry: forced rounds keep Fallbacks at zero.
	ForcedRounds uint64
	Fallbacks    uint64
	// Drained reports Retired == Freed with the hub's free staging empty
	// after the post-run drain: the shared bags leaked nothing across
	// structures and lease churn, and no record was stranded in staging.
	Drained bool
	// Free-path amortization telemetry: reclamation bursts the hub received
	// vs. pool FreeBatch calls it issued. DispatchPerBurst ≈ 1 is the
	// single-structure Domain's amortization; one-per-run degradation under
	// interleaved retires shows up as DispatchPerBurst ≈ records/burst.
	HubBursts        uint64
	HubDispatches    uint64
	DispatchPerBurst float64
	// ScanEntries is threads × reservations — the announcement rows one
	// reservation scan visits at the widths the scheme was built with.
	ScanEntries int
	// Holder-death telemetry (schema v6). In a Stall cell Reaped counts the
	// wedged holders the harness reaper revoked, RevokedReleases the zombie
	// late-Release no-ops, and OrphansAdopted the orphaned records survivors
	// re-homed. In a non-stall cell all three must read zero — nothing
	// injects holder deaths there, so a non-zero Reaped means a healthy
	// holder was revoked (nbrtrend flags that host-independently).
	Reaped          uint64
	RevokedReleases uint64
	OrphansAdopted  uint64
	// Time-domain telemetry (schema v8): the cell runs with the flight
	// recorder enabled, so alongside the counters it reports how long workers
	// waited for admission (first ErrRegistryFull → successful Acquire,
	// spanning the whole Gosched retry loop) and how long sampled retired
	// records sat as garbage before the allocator freed them. Quantiles are
	// power-of-two bucket edges in nanoseconds — host-dependent context, not
	// invariants; nbrtrend reports them unflagged. EventTail is the merged
	// flight-recorder timeline at the end of the run, embedded in violation
	// reports so a failed bound names the stalled thread.
	AdmitWaitP50  int64
	AdmitWaitP99  int64
	GarbageAgeP50 int64
	GarbageAgeP99 int64
	EventTail     string
}

// BoundExceeded reports whether the sampled garbage peak violated the
// scheme's declared aggregated bound.
func (r RuntimeResult) BoundExceeded() bool {
	return r.Bound != smr.Unbounded && r.GarbagePeak > uint64(r.Bound)
}

// StructuresKey joins the structure names for cell identification.
func (w RuntimeWorkload) StructuresKey() string { return strings.Join(w.Structures, "+") }

// RunRuntime executes one shared-runtime cell.
func RunRuntime(w RuntimeWorkload) (RuntimeResult, error) {
	if len(w.Structures) == 0 {
		return RuntimeResult{}, fmt.Errorf("bench: runtime cell needs at least one structure")
	}
	if w.Slots <= 0 || w.Workers <= 0 {
		return RuntimeResult{}, fmt.Errorf("bench: runtime cell needs Slots and Workers")
	}
	if w.SessionOps <= 0 {
		w.SessionOps = 64
	}
	if w.KeyRange < 2 {
		w.KeyRange = 4096
	}
	if w.Duration <= 0 {
		w.Duration = time.Second
	}

	// One hub, one pool per structure (tagged), one scheme over the hub at
	// the widest attached announcement needs, one registry.
	hub := mem.NewHub(w.Slots)
	insts := make([]catalog.Instance, 0, len(w.Structures))
	req := ds.Requirements{Threshold: ds.DefaultThreshold}
	for _, name := range w.Structures {
		if !catalog.Runnable(name, w.Scheme) {
			return RuntimeResult{}, fmt.Errorf("bench: %s is not runnable under %s (Table 1)", name, w.Scheme)
		}
		inst, err := catalog.NewDSArena(name, mem.Config{MaxThreads: w.Slots, Tag: hub.NextTag()})
		if err != nil {
			return RuntimeResult{}, err
		}
		hub.Attach(len(insts), inst.Arena)
		insts = append(insts, inst)
		req = req.Max(inst.Req)
	}
	sch, err := catalog.NewSchemeFor(w.Scheme, hub, w.Slots, w.Cfg, req)
	if err != nil {
		return RuntimeResult{}, err
	}
	// The cell measures the reclamation pipeline in time as well as in
	// count: the recorder is wired before Bind (so the scheme adopts it via
	// AttachRegistry) and enabled for the whole run. The fixed-N workload
	// cells in workload.go deliberately stay recorder-free — their measured
	// trajectories predate the recorder and must not absorb even its
	// one-branch cost — but this cell's whole point is the pipeline's time
	// domain, so it pays the branch and reports the quantiles.
	rec := obs.NewRecorder(w.Slots)
	rec.Enable()
	reg := smr.NewRegistry(w.Slots)
	reg.SetRecorder(rec)
	hub.SetRecorder(rec)
	reg.Bind(sch)
	if burst := sch.ReclaimBurst(); burst > 0 {
		reg.OnAcquire(func(tid int) { hub.SizeCache(tid, burst) })
	}
	reg.OnRelease(func(tid int) { hub.DrainCache(tid) })

	// Prefill each structure to half its stripe of the key range.
	if l, err := reg.Acquire(); err == nil {
		g := sch.Guard(l.Tid())
		seed := uint64(0x9e3779b97f4a7c15)
		for i, inst := range insts {
			target := int(w.KeyRange / 2)
			for n := 0; n < target; {
				if inst.Set.Insert(g, splitmix64(&seed)%w.KeyRange+1) {
					n++
				}
			}
			_ = i
		}
		l.Release()
	}

	var (
		stop        atomic.Bool
		peakGarbage atomic.Uint64
		started     sync.WaitGroup
		done        sync.WaitGroup
		opCounts    = make([]uint64, w.Workers)
		sessions    atomic.Uint64
	)
	// The harness reaper for Stall cells: wedged holders' leases arrive here;
	// each is revoked — the shared recovery path runs on this goroutine, not
	// the holder's — and then given the zombie's late Release. The channel
	// holds at most Slots leases (a wedge keeps its slot until revoked), so
	// the send in the worker never blocks.
	var reapCh chan *smr.Lease
	reaperDone := make(chan struct{})
	if w.Stall {
		reapCh = make(chan *smr.Lease, w.Slots)
		go func() {
			defer close(reaperDone)
			for l := range reapCh {
				if reg.Revoke(l) {
					l.Release() // the zombie waking up late: a counted no-op
				}
			}
		}()
	} else {
		close(reaperDone)
	}

	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		// Same 1ms cadence as the workload cells' sampler: a Gosched spin
		// would burn a core inside the measured window and deflate Mops.
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for !stop.Load() {
			if g := sch.Stats().Garbage(); g > peakGarbage.Load() {
				peakGarbage.Store(g)
			}
			<-tick.C
		}
	}()

	for wk := 0; wk < w.Workers; wk++ {
		started.Add(1)
		done.Add(1)
		go func(wk int) {
			defer done.Done()
			rng := uint64(wk)*0x100000001b3 + 0x9e3779b97f4a7c15
			started.Done()
			var ops uint64
			var nsess int
			// Admission wait, measured where this cell actually waits: the
			// workers oversubscribe the registry and spin on ErrRegistryFull,
			// so the wait is first-refusal → successful Acquire, spanning
			// every Gosched of the retry loop.
			var waitFrom int64
			for !stop.Load() {
				l, err := reg.Acquire()
				if errors.Is(err, smr.ErrRegistryFull) {
					if waitFrom == 0 {
						waitFrom = rec.Clock()
					}
					runtime.Gosched()
					continue
				}
				if err != nil {
					return
				}
				if waitFrom != 0 {
					rec.ObserveSince(obs.HistAdmissionWait, waitFrom)
					waitFrom = 0
				}
				g := sch.Guard(l.Tid())
				for i := 0; i < w.SessionOps; i++ {
					r := splitmix64(&rng)
					if w.Interleave {
						// Adversarial retires: round-robin the structures so
						// consecutive retired records never share an owner,
						// and pair insert/delete so nearly every op retires.
						inst := insts[i%len(insts)]
						key := r%w.KeyRange + 1
						inst.Set.Insert(g, key)
						inst.Set.Delete(g, key)
						ops += 2
						continue
					}
					inst := insts[r%uint64(len(insts))]
					key := (r>>16)%w.KeyRange + 1
					switch (r >> 8) % 4 {
					case 0, 1:
						inst.Set.Insert(g, key)
					case 2:
						inst.Set.Delete(g, key)
					default:
						inst.Set.Contains(g, key)
					}
					ops++
				}
				nsess++
				if w.Stall && nsess%stallEvery == 0 {
					//nbr:allow leaseescape — deliberate wedge: the workload ships the lease to the reaper to exercise revocation under load
					reapCh <- l // wedged: never releases; the reaper revokes
				} else {
					l.Release()
				}
				sessions.Add(1)
				if ops%1024 == 0 {
					runtime.Gosched() // oversubscribed: keep interleaving fine
				}
			}
			opCounts[wk] = ops
		}(wk)
	}

	started.Wait()
	begin := time.Now()
	time.Sleep(w.Duration)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(begin)
	if w.Stall {
		close(reapCh)
	}
	<-reaperDone
	<-samplerDone

	res := RuntimeResult{
		RuntimeWorkload: w,
		Elapsed:         elapsed,
		Sessions:        sessions.Load(),
		Stats:           sch.Stats(),
		Bound:           sch.GarbageBound(),
		GarbagePeak:     peakGarbage.Load(),
		ForcedRounds:    reg.ForcedRounds(),
		Fallbacks:       reg.FallbackReuses(),
		Reaped:          reg.ReapedLeases(),
		RevokedReleases: reg.RevokedReleases(),
		OrphansAdopted:  reg.OrphansAdopted(),
	}
	if g := res.Stats.Garbage(); g > res.GarbagePeak {
		res.GarbagePeak = g
	}
	for _, c := range opCounts {
		res.Ops += c
	}
	res.Mops = float64(res.Ops) / elapsed.Seconds() / 1e6

	// Drain the shared bags: the cell must end Retired == Freed with the
	// hub's free staging empty, or the runtime seam leaked (or stranded)
	// records across structures.
	if dr, ok := sch.(smr.Drainer); ok {
		if l, err := reg.Acquire(); err == nil {
			for i := 0; i < 64; i++ {
				st := sch.Stats()
				if st.Retired == st.Freed {
					break
				}
				dr.Drain(l.Tid())
			}
			l.Release()
		}
		res.Stats = sch.Stats()
		res.Drained = res.Stats.Retired == res.Stats.Freed && hub.Staged() == 0
	} else {
		res.Drained = hub.Staged() == 0 // leaky never frees; nothing to drain
	}

	hs := hub.Stats()
	res.HubBursts = hs.Bursts
	res.HubDispatches = hs.Dispatches
	if hs.Bursts > 0 {
		res.DispatchPerBurst = float64(hs.Dispatches) / float64(hs.Bursts)
	}
	res.ScanEntries = w.Slots * req.Reservations

	// The time-domain quantiles (schema v8) and the timeline tail the
	// violation reports embed. Captured after the drain so the tail shows
	// the run's final state — in a healthy cell the last events are the
	// drain's scan rounds, in a stuck one the open read phase that pinned
	// the garbage.
	aw := rec.Hist(obs.HistAdmissionWait)
	res.AdmitWaitP50 = aw.Quantile(0.50)
	res.AdmitWaitP99 = aw.Quantile(0.99)
	ga := rec.Hist(obs.HistGarbageAge)
	res.GarbageAgeP50 = ga.Quantile(0.50)
	res.GarbageAgeP99 = ga.Quantile(0.99)
	res.EventTail = rec.Tail(64)
	return res, nil
}
