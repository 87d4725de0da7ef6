package dstest

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// Kill is the holder-death suite: lease holders that never release. Workers
// churn sessions as in Lease, but a third of the sessions end badly — the
// holder either panics mid-burst (the panic-unwind release path must still
// quiesce the slot) or wedges with the lease held (the reaper revokes it
// through Registry.Revoke, running the shared recovery path from a foreign
// goroutine). A final deterministic scenario freezes a holder mid-read-phase
// and revokes it, asserting that on a signal-capable scheme the zombie is
// killed (sigsim.Revoked) the moment it resumes. The suite then demands full
// recovery: every killed holder's slot reaped and reusable, drain to
// Retired == Freed with an empty orphan list, zero fallback reuses, the
// declared GarbageBound held throughout, and every zombie's late Release a
// counted no-op.
//
//nbr:allow readphase — this harness manufactures protocol violations on purpose: holders freeze inside read phases so the watchdog/revocation machinery has something to kill; the orchestrating goroutine is never neutralized itself
//nbr:allow leaseescape — wedged holders hand their lease to the reaper over a channel precisely to exercise cross-goroutine revocation recovery
func Kill(t *testing.T, f Factory, scheme string) {
	const (
		maxThreads = 6
		workers    = 10 // > maxThreads: reaped slots must recycle to finish
		sessionOps = 40
	)
	sessions := 24
	if testing.Short() {
		sessions = 6
	}

	inst := f.New(maxThreads)
	sch, err := catalog.NewSchemeFor(scheme, inst.Arena, maxThreads, config(), inst.Set.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	reg := smr.NewRegistry(maxThreads)
	reg.Bind(sch)
	if burst := sch.ReclaimBurst(); burst > 0 {
		reg.OnAcquire(func(tid int) { inst.Arena.SizeCache(tid, burst) })
	}
	reg.OnRelease(func(tid int) { inst.Arena.DrainCache(tid) })

	// owners is the recycled-tid aliasing detector, as in Lease. A wedged
	// holder gives up its count before handing the lease to the reaper: its
	// ownership truly ends at Revoke, and the slot cannot be re-served
	// before that.
	var owners [maxThreads]atomic.Int32

	var stop atomic.Bool
	var violation atomic.Bool
	var peak, peakBound atomic.Uint64
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for !stop.Load() {
			g := sch.Stats().Garbage()
			if bound := sch.GarbageBound(); bound != smr.Unbounded && g > uint64(bound) {
				violation.Store(true)
				peak.Store(g)
				peakBound.Store(uint64(bound))
			}
			runtime.Gosched()
		}
	}()

	// The reaper: wedged holders' leases arrive here; each is revoked — the
	// shared recovery path runs on THIS goroutine, not the holder's — and
	// then given the zombie's late Release, which must be a counted no-op.
	reap := make(chan *smr.Lease, workers)
	reaperDone := make(chan struct{})
	var reaped, lateReleases atomic.Uint64
	go func() {
		defer close(reaperDone)
		for l := range reap {
			if !reg.Revoke(l) {
				t.Error("Revoke of a wedged holder's lease reported already-released")
				continue
			}
			reaped.Add(1)
			l.Release() // the zombie waking up late
			lateReleases.Add(1)
		}
	}()

	errKill := errors.New("dstest: injected holder panic")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*6364136223846793005 + 11))
			for s := 0; s < sessions; s++ {
				l, err := reg.Acquire()
				if errors.Is(err, smr.ErrRegistryFull) {
					runtime.Gosched()
					s--
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				tid := l.Tid()
				if owners[tid].Add(1) != 1 {
					t.Errorf("tid %d leased to two goroutines at once (recycled-slot aliasing)", tid)
					owners[tid].Add(-1)
					l.Release()
					return
				}
				mode := s % 3 // 0: clean, 1: panic mid-burst, 2: wedge
				func() {
					defer func() {
						if r := recover(); r != nil {
							if r != errKill {
								panic(r)
							}
							// The panic-unwind release: same shared recovery
							// path as a clean release, from a recover block.
							owners[tid].Add(-1)
							l.Release()
						}
					}()
					g := sch.Guard(tid)
					for i := 0; i < sessionOps; i++ {
						if mode == 1 && i == sessionOps/2 {
							panic(errKill)
						}
						key := uint64(rng.Intn(48)) + 1
						if rng.Intn(3) == 0 {
							inst.Set.Insert(g, key)
						} else {
							inst.Set.Delete(g, key)
						}
					}
					owners[tid].Add(-1)
					if mode == 2 {
						reap <- l // wedged: never releases; the reaper must
						return
					}
					l.Release()
				}()
			}
		}(w)
	}
	wg.Wait()

	// Deterministic mid-operation freeze: a holder enters a read phase and
	// stops; the reaper revokes it. On a signal-capable scheme the zombie
	// must be killed the moment it resumes — terminally (Revoked), not
	// restarted (Neutralized) onto a slot that may have a successor.
	if l, err := acquireRetry(reg); err == nil {
		fg := sch.Guard(l.Tid())
		fg.BeginOp()
		fg.BeginRead()
		if !reg.Revoke(l) {
			t.Error("Revoke of the frozen holder reported already-released")
		} else {
			reaped.Add(1)
			if scheme == "nbr" || scheme == "nbr+" {
				killed := func() (hit bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(sigsim.Revoked); !ok {
								panic(r)
							}
							hit = true
						}
					}()
					fg.EndRead()
					return false
				}()
				if !killed {
					t.Error("frozen holder resumed its read phase without being killed by the revocation")
				}
			}
			l.Release() // zombie's late release
			lateReleases.Add(1)
		}
	} else {
		t.Errorf("could not acquire a slot for the freeze scenario: %v", err)
	}

	close(reap)
	<-reaperDone
	stop.Store(true)
	<-samplerDone
	if violation.Load() {
		t.Fatalf("garbage-bound contract violated under holder kills: sampled %d > declared bound %d",
			peak.Load(), peakBound.Load())
	}

	if got := reg.ReapedLeases(); got != reaped.Load() {
		t.Fatalf("ReapedLeases = %d, want %d", got, reaped.Load())
	}
	if got := reg.RevokedReleases(); got != lateReleases.Load() {
		t.Fatalf("RevokedReleases = %d (zombie late releases not all counted as no-ops), want %d",
			got, lateReleases.Load())
	}

	// Zero stranded slots: every slot — reaped ones included — must be
	// acquirable again. Acquire retries ride the bound RoundForcer, so aging
	// needs no manual NoteRound here.
	held := make([]*smr.Lease, 0, maxThreads)
	for len(held) < maxThreads {
		l, err := acquireRetry(reg)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, l)
	}
	if got := reg.Active().Count(); got != maxThreads {
		t.Fatalf("re-acquired all slots but active mask counts %d of %d", got, maxThreads)
	}
	// Drain under the first held lease, then release them all.
	st := sch.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence (double-free accounting): freed %d > retired %d",
			st.Freed, st.Retired)
	}
	if d, ok := sch.(smr.Drainer); ok && scheme != "none" {
		for i := 0; i < 64; i++ {
			st = sch.Stats()
			if st.Retired == st.Freed {
				break
			}
			d.Drain(held[0].Tid())
		}
		st = sch.Stats()
		if st.Retired != st.Freed {
			t.Fatalf("drain left stranded records after holder kills: retired %d, freed %d (%d leaked)",
				st.Retired, st.Freed, st.Retired-st.Freed)
		}
		if reg.OrphanCount() != 0 {
			t.Fatalf("orphan list non-empty after drain: %d records", reg.OrphanCount())
		}
	}
	for _, l := range held {
		l.Release()
	}
	// Every scheme except the leaky baseline can force the missing rounds
	// (leaky never scans, so its fallback reuse is trivially safe).
	if got := reg.FallbackReuses(); scheme != "none" && got != 0 {
		t.Fatalf("FallbackReuses = %d, want 0 (reaped slots must age through forced rounds)", got)
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
}

// acquireRetry rides out transient registry-full refusals (an un-aged
// quarantine head racing the forcer); it gives up only if the registry
// stays full long past any transient window — a genuinely stranded slot.
func acquireRetry(reg *smr.Registry) (*smr.Lease, error) {
	var err error
	for i := 0; i < 1<<16; i++ {
		var l *smr.Lease
		if l, err = reg.Acquire(); err == nil {
			return l, nil
		}
		if !errors.Is(err, smr.ErrRegistryFull) {
			return nil, err
		}
		runtime.Gosched()
	}
	return nil, err
}
