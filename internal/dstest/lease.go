package dstest

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/smr"
)

// Lease is the dynamic-membership stress: more worker goroutines than
// registry slots acquire a lease, run a burst of operations, release, and
// loop — so slots are constantly recycled mid-traffic, departing threads
// orphan mid-protocol bags, and reclaimers adopt them, all under the live
// GarbageBound contract. At the end a drain pass must reach
// Retired == Freed: a departing thread that leaked records fails here, and
// two concurrently held leases sharing a tid (recycled-slot aliasing) fails
// immediately.
func Lease(t *testing.T, f Factory, scheme string) {
	const (
		maxThreads = 8
		workers    = 12 // > maxThreads: acquires contend and recycle slots
		sessionOps = 60
	)
	sessions := 40
	if testing.Short() {
		sessions = 8
	}

	inst := f.New(maxThreads)
	sch, err := catalog.NewSchemeFor(scheme, inst.Arena, maxThreads, config(), inst.Set.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	reg := smr.NewRegistry(maxThreads)
	reg.Bind(sch)
	// The allocator-side lease hooks: size the slot's cache to the scheme's
	// burst on acquire, flush it on release so unleased slots strand no
	// recyclable records.
	if burst := sch.ReclaimBurst(); burst > 0 {
		reg.OnAcquire(func(tid int) { inst.Arena.SizeCache(tid, burst) })
	}
	reg.OnRelease(func(tid int) { inst.Arena.DrainCache(tid) })

	// owners tracks concurrent lease holders per tid: two at once is the
	// recycled-tid aliasing the quarantine exists to prevent.
	var owners [maxThreads]atomic.Int32

	var stop atomic.Bool
	var violation atomic.Bool
	var peak, peakBound atomic.Uint64
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for !stop.Load() {
			g := sch.Stats().Garbage()
			// GarbageBound is monotone, so a bound read after the garbage
			// sample can only be ≥ the bound at sampling time: g > bound is
			// a true violation, never a race artifact.
			if bound := sch.GarbageBound(); bound != smr.Unbounded && g > uint64(bound) {
				violation.Store(true)
				peak.Store(g)
				peakBound.Store(uint64(bound))
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*2654435761 + 17))
			for s := 0; s < sessions; s++ {
				l, err := reg.Acquire()
				if errors.Is(err, smr.ErrRegistryFull) {
					runtime.Gosched()
					s-- // a failed acquire is not a session
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
				g := sch.Guard(tid)
				for i := 0; i < sessionOps; i++ {
					key := uint64(rng.Intn(48)) + 1
					switch rng.Intn(3) {
					case 0:
						inst.Set.Insert(g, key)
					default:
						inst.Set.Delete(g, key) // delete-heavy: retire traffic
					}
				}
				owners[tid].Add(-1)
				l.Release()
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-samplerDone
	if violation.Load() {
		t.Fatalf("garbage-bound contract violated under lease churn: sampled %d > declared bound %d",
			peak.Load(), peakBound.Load())
	}

	// Drain: every record a departed thread retired must be reclaimable at
	// quiescence — zero orphaned records leaked. The leaky scheme never
	// frees, so only the accounting checks apply to it.
	st := sch.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence (double-free accounting): freed %d > retired %d",
			st.Freed, st.Retired)
	}
	if d, ok := sch.(smr.Drainer); ok && scheme != "none" {
		l, err := reg.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			st = sch.Stats()
			if st.Retired == st.Freed {
				break
			}
			d.Drain(l.Tid())
		}
		l.Release()
		st = sch.Stats()
		if st.Retired != st.Freed {
			t.Fatalf("drain left orphaned records: retired %d, freed %d (%d leaked)",
				st.Retired, st.Freed, st.Retired-st.Freed)
		}
		if reg.OrphanCount() != 0 {
			t.Fatalf("orphan list non-empty after drain: %d records", reg.OrphanCount())
		}
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
}
