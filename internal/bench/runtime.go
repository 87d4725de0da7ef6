package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nbr"
	"nbr/internal/catalog"
	"nbr/internal/smr"
)

// This file measures the shared-runtime regime through the public API: one
// nbr.Runtime hosting several structures, workers oversubscribing its lease
// slots with Runtime.With sessions. Every session is admitted through
// AcquireCtx, churns every structure under one lease, and releases, so the
// cell exercises admission, slot recycling, forced-round quarantine aging
// and the multi-owner free routing — the costs a service pays per request.

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
	// Stall selects the holder-death cell: the runtime arms its lease
	// watchdog (RuntimeOptions.LeaseTimeout = stallTimeout), and each
	// worker's first session, then every stallEvery-th, wedges with its
	// lease held until the watchdog reaps it. Healthy sessions opt out of
	// the deadline, so every reap is a wedge.
	Stall bool
}

const (
	// stallEvery is the holder-death cadence under Stall: one wedged session
	// per this many, per worker — frequent enough that every slot sees
	// reaped-slot recycling within a short run, rare enough that the cell
	// still mostly serves traffic. Wedging each worker's first session
	// makes even the shortest run reap.
	stallEvery = 8
	// stallTimeout is the stall cell's LeaseTimeout: how long a wedge holds
	// its slot before the watchdog reaps it.
	stallTimeout = 10 * time.Millisecond
)

// RuntimeResult is one measured shared-runtime cell; every counter is read
// from the runtime after its post-run Drain.
type RuntimeResult struct {
	RuntimeWorkload
	Ops      uint64
	Sessions uint64 // completed With sessions, reaped ones included
	// The aggregated garbage-bound contract, as in Result.
	Bound       int
	GarbagePeak uint64
	Stats       smr.Stats
	// Quarantine-aging telemetry: forced rounds keep Fallbacks at zero.
	ForcedRounds uint64
	Fallbacks    uint64
	// Staged is Runtime.StagedFrees after the drain, and Drained reports
	// Retired == Freed with Staged == 0: the shared bags leaked nothing
	// across structures and lease churn, and no record was stranded in the
	// hub's free staging.
	Staged  int
	Drained bool
	// Holder-death telemetry: watchdog reaps and zombie late releases
	// (counted no-ops). Nothing but a Stall wedge can be reaped, so Reaped
	// is zero in every other cell.
	Reaped          uint64
	RevokedReleases uint64
	// EventTail is the runtime's flight-recorder tail after the drain; a
	// violated contract prints it, so the report names the thread that held
	// the garbage.
	EventTail string
}

// BoundExceeded reports whether the sampled garbage peak violated the
// scheme's declared aggregated bound.
func (r RuntimeResult) BoundExceeded() bool {
	return r.Bound != smr.Unbounded && r.GarbagePeak > uint64(r.Bound)
}

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
	opts := nbr.RuntimeOptions{
		Scheme: w.Scheme, MaxThreads: w.Slots,
		BagSize: w.Cfg.BagSize, LoFraction: w.Cfg.LoFraction, ScanFreq: w.Cfg.ScanFreq,
		Threshold: w.Cfg.Threshold, EraFreq: w.Cfg.EraFreq,
		SendSpin: w.Cfg.SendSpin, HandleSpin: w.Cfg.HandleSpin,
	}
	if w.Stall {
		opts.LeaseTimeout = stallTimeout
	}
	rt, err := nbr.NewRuntime(opts)
	if err != nil {
		return RuntimeResult{}, err
	}
	sets := make([]*nbr.Set, len(w.Structures))
	for i, name := range w.Structures {
		if sets[i], err = rt.NewSet(name); err != nil {
			return RuntimeResult{}, fmt.Errorf("bench: %w", err)
		}
	}
	// The recorder runs for the whole cell, so a violation report can print
	// the timeline that led to it.
	rt.Observe(true)
	ctx := context.Background()

	// Prefill each structure to half the key range.
	err = rt.With(ctx, func(l *nbr.Lease) error {
		l.SetDeadline(time.Time{}) // setup, not a wedge
		seed := uint64(0x9e3779b97f4a7c15)
		for _, s := range sets {
			for n := uint64(0); n < w.KeyRange/2; {
				if s.Insert(l, splitmix64(&seed)%w.KeyRange+1) {
					n++
				}
			}
		}
		return nil
	})
	if err != nil {
		return RuntimeResult{}, err
	}

	var (
		stop        atomic.Bool
		peakGarbage atomic.Uint64
		done        sync.WaitGroup
		opCounts    = make([]uint64, w.Workers)
		errs        = make([]error, w.Workers)
		sessions    atomic.Uint64
	)
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		// Same 1ms cadence as the workload cells' sampler: a Gosched spin
		// would burn a core inside the measured window.
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for !stop.Load() {
			if g := rt.Stats().Garbage(); g > peakGarbage.Load() {
				peakGarbage.Store(g)
			}
			<-tick.C
		}
	}()

	for wk := 0; wk < w.Workers; wk++ {
		done.Add(1)
		go func(wk int) {
			defer done.Done()
			rng := uint64(wk)*0x100000001b3 + 0x9e3779b97f4a7c15
			for nsess := 1; !stop.Load(); nsess++ {
				wedge := w.Stall && nsess%stallEvery == 1
				err := rt.With(ctx, func(l *nbr.Lease) error {
					if wedge {
						// Wedged: hold the lease until the watchdog reaps it.
						for !l.Revoked() {
							time.Sleep(100 * time.Microsecond)
						}
						return nil
					}
					l.SetDeadline(time.Time{})
					for i := 0; i < w.SessionOps; i++ {
						r := splitmix64(&rng)
						s := sets[r%uint64(len(sets))]
						key := (r>>16)%w.KeyRange + 1
						switch (r >> 8) % 4 {
						case 0, 1:
							s.Insert(l, key)
						case 2:
							s.Delete(l, key)
						default:
							s.Contains(l, key)
						}
					}
					opCounts[wk] += uint64(w.SessionOps)
					return nil
				})
				if err != nil && !errors.Is(err, nbr.ErrLeaseReaped) {
					errs[wk] = err
					return
				}
				sessions.Add(1)
			}
		}(wk)
	}
	time.Sleep(w.Duration)
	stop.Store(true)
	done.Wait()
	<-samplerDone
	if err := errors.Join(errs...); err != nil {
		return RuntimeResult{}, err
	}

	if g := rt.Stats().Garbage(); g > peakGarbage.Load() {
		peakGarbage.Store(g) // bags may have peaked right at the end
	}
	// Drain the shared bags: the cell must end Retired == Freed with the
	// hub's free staging empty, or the runtime leaked (or stranded) records
	// across structures.
	if err := rt.Drain(); err != nil {
		return RuntimeResult{}, err
	}
	res := RuntimeResult{
		RuntimeWorkload: w,
		Sessions:        sessions.Load(),
		Stats:           rt.Stats(),
		Bound:           rt.GarbageBound(),
		GarbagePeak:     peakGarbage.Load(),
		ForcedRounds:    rt.ForcedRounds(),
		Fallbacks:       rt.FallbackReuses(),
		Staged:          rt.StagedFrees(),
		Reaped:          rt.ReapedLeases(),
		RevokedReleases: rt.RevokedReleases(),
	}
	res.Drained = res.Stats.Retired == res.Stats.Freed && res.Staged == 0
	for _, c := range opCounts {
		res.Ops += c
	}
	var tail bytes.Buffer
	rt.DumpRecorder(&tail, 64)
	res.EventTail = tail.String()
	return res, nil
}
