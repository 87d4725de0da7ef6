package nbr_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nbr"
	"nbr/internal/dstest"
)

// TestRuntimeMultiStructureChurn is the multi-structure lease-churn suite:
// one runtime, three structures, every scheme — workers churn all three
// sets under one lease each while a sampler holds the aggregated garbage
// bound, then the runtime drains to Retired == Freed (see dstest.RuntimeChurn
// for the contract details).
func TestRuntimeMultiStructureChurn(t *testing.T) {
	for _, scheme := range nbr.Schemes() {
		t.Run(scheme, func(t *testing.T) { dstest.RuntimeChurn(t, scheme) })
	}
}

// TestRuntimeAcquireCtxCancellation pins admission control under a full
// registry: AcquireCtx honors the context deadline while every slot is
// held, and admits promptly once a slot frees.
func TestRuntimeAcquireCtxCancellation(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}

	a, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}

	// Full registry + deadline: the waiter must come back with the
	// context's error, not ErrNoLease, and must leave the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := rt.AcquireCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AcquireCtx under a full registry: got %v, want DeadlineExceeded", err)
	}
	if w := rt.Waiters(); w != 0 {
		t.Fatalf("cancelled waiter still queued: %d", w)
	}

	// A pre-cancelled context never waits.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := rt.AcquireCtx(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled AcquireCtx: got %v", err)
	}

	// A release admits a blocked waiter.
	got := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l, err := rt.AcquireCtx(ctx)
		if err == nil {
			l.Release()
		}
		got <- err
	}()
	for i := 0; rt.Waiters() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	a.Release()
	if err := <-got; err != nil {
		t.Fatalf("waiter not admitted after release: %v", err)
	}
	b.Release()
}

// TestRuntimeAcquireCtxFIFO pins waiter-queue fairness: blocked AcquireCtx
// callers are admitted in arrival order as slots free up.
func TestRuntimeAcquireCtxFIFO(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*nbr.Lease, 2)
	for i := range held {
		if held[i], err = rt.Acquire(); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var order []int
	admitted := make(chan struct{}, 2)
	releaseMe := make(chan struct{})
	var wg sync.WaitGroup
	waiter := func(id int) {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		l, err := rt.AcquireCtx(ctx)
		if err != nil {
			t.Errorf("waiter %d: %v", id, err)
			admitted <- struct{}{}
			return
		}
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
		admitted <- struct{}{}
		<-releaseMe // hold the lease so this admission cannot admit the next
		l.Release()
	}

	// Enqueue waiter 1 first, then waiter 2 (each provably queued before
	// the next step).
	wg.Add(2)
	go waiter(1)
	for i := 0; rt.Waiters() < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	go waiter(2)
	for i := 0; rt.Waiters() < 2 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if rt.Waiters() != 2 {
		t.Fatalf("waiters = %d, want 2", rt.Waiters())
	}

	// One release, one admission — the head of the queue.
	held[0].Release()
	<-admitted
	mu.Lock()
	first := append([]int(nil), order...)
	mu.Unlock()
	if len(first) != 1 || first[0] != 1 {
		t.Fatalf("first admission order = %v, want [1]", first)
	}
	held[1].Release() // second slot admits waiter 2
	<-admitted
	mu.Lock()
	final := append([]int(nil), order...)
	mu.Unlock()
	if len(final) != 2 || final[1] != 2 {
		t.Fatalf("admission order = %v, want [1 2]", final)
	}
	close(releaseMe)
	wg.Wait()
}

// TestRuntimeSharedLeaseAcrossSets pins the tentpole contract: one lease
// operates on every attached structure, records retired into the shared
// bags route back to their owning pools, and the runtime drains clean.
func TestRuntimeSharedLeaseAcrossSets(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 4, BagSize: 128, ScanFreq: 4})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"lazylist", "harris", "dgt"}
	sets := make([]*nbr.Set, len(names))
	for i, n := range names {
		if sets[i], err = rt.NewSet(n); err != nil {
			t.Fatal(err)
		}
	}
	got := rt.Structures()
	if len(got) != 3 || got[0] != "lazylist" || got[2] != "dgt" {
		t.Fatalf("Structures() = %v", got)
	}

	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := uint64(i%63) + 1
		s := sets[i%len(sets)]
		s.Insert(l, key)
		if i%2 == 0 {
			s.Delete(l, key)
		}
	}
	l.Release()

	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Retired != st.Freed {
		t.Fatalf("shared bags leaked: retired %d != freed %d", st.Retired, st.Freed)
	}
	if b := rt.GarbageBound(); b != nbr.Unbounded && st.Garbage() > uint64(b) {
		t.Fatalf("garbage %d exceeds aggregated bound %d", st.Garbage(), b)
	}
	var liveSum int64
	for _, s := range sets {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		liveSum += s.MemStats().Live
	}
	if agg := rt.MemStats(); agg.Live != liveSum {
		t.Fatalf("aggregated MemStats.Live = %d, per-set sum = %d", agg.Live, liveSum)
	}
}

// TestRuntimeWidthNarrowing pins the width-registry fast path: a runtime's
// scheme is built lazily at the widths its attached structures declare, not
// at the conservative global defaults, so scans under Runtime visit exactly
// as many announcement rows as under a single-structure Domain.
func TestRuntimeWidthNarrowing(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	if s, r := rt.Widths(); s != 2 || r != 2 {
		t.Fatalf("lazylist-only runtime widths = %d/%d, want 2/2", s, r)
	}
	// A wider attachment grows the not-yet-built scheme monotonically.
	if _, err := rt.NewSet("dgt"); err != nil {
		t.Fatal(err)
	}
	if s, r := rt.Widths(); s != 3 || r != 3 {
		t.Fatalf("lazylist+dgt runtime widths = %d/%d, want 3/3", s, r)
	}

	// The widths must match a Domain hosting the widest structure exactly.
	d, err := nbr.New(nbr.Options{Structure: "dgt", RuntimeOptions: nbr.RuntimeOptions{MaxThreads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ds, dr := d.Runtime.Widths()
	if s, r := rt.Widths(); s != ds || r != dr {
		t.Fatalf("Runtime widths %d/%d != Domain widths %d/%d", s, r, ds, dr)
	}

	l, err := rt.Acquire() // freezes the widths
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if s, r := rt.Widths(); s != 3 || r != 3 {
		t.Fatalf("widths changed across materialization: %d/%d", s, r)
	}
}

// TestRuntimePostLeaseWidening pins the freeze: once a lease has been
// handed out the scheme's announcement widths cannot grow, so an attachment
// declaring wider needs is rejected — while one that fits still attaches.
func TestRuntimePostLeaseWidening(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("harris"); err == nil {
		t.Fatal("harris (3 protect slots) must not widen a materialized 2-slot scheme")
	}
	// hmlist declares the same widths as lazylist: it must attach late and
	// be fully usable under the live lease.
	s, err := rt.NewSet("hmlist")
	if err != nil {
		t.Fatalf("width-compatible late attach rejected: %v", err)
	}
	s.Insert(l, 9)
	if !s.Contains(l, 9) {
		t.Fatal("late-attached set unusable under a live lease")
	}
	s.Delete(l, 9)
	l.Release()
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeStructuresOption pins pre-declaration: naming a structure kind
// in RuntimeOptions.Structures reserves its widths from the registry, so it
// can attach after leases exist even though nothing else declared its
// widths; unknown names fail construction.
func TestRuntimeStructuresOption(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, Structures: []string{"dgt"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	l, err := rt.Acquire() // freezes at dgt's pre-declared 3/3, not lazylist's 2/2
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	dgt, err := rt.NewSet("dgt")
	if err != nil {
		t.Fatalf("pre-declared structure rejected after lease: %v", err)
	}
	dgt.Insert(l, 3)
	if !dgt.Contains(l, 3) {
		t.Fatal("pre-declared late attachment unusable")
	}

	if _, err := nbr.NewRuntime(nbr.RuntimeOptions{Structures: []string{"bogus"}}); err == nil {
		t.Fatal("unknown structure kind in Structures must fail construction")
	}
}

// TestRuntimeStagedFreesDrain pins the staging lifecycle through the public
// API: interleaved retires across structures may sit in the hub's staging
// buffers mid-lease, but a release flushes them — StagedFrees reads zero
// with every lease released, and the books balance after Drain.
func TestRuntimeStagedFreesDrain(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"lazylist", "harris", "dgt"}
	sets := make([]*nbr.Set, len(names))
	for i, n := range names {
		if sets[i], err = rt.NewSet(n); err != nil {
			t.Fatal(err)
		}
	}
	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin insert/delete pairs: the adversarially interleaved retire
	// stream the staging buffers exist for.
	for i := 0; i < 4000; i++ {
		s := sets[i%len(sets)]
		key := uint64(i%97) + 1
		s.Insert(l, key)
		s.Delete(l, key)
	}
	l.Release()
	if staged := rt.StagedFrees(); staged != 0 {
		t.Fatalf("StagedFrees = %d after every lease released, want 0", staged)
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Retired != st.Freed {
		t.Fatalf("retired %d != freed %d", st.Retired, st.Freed)
	}
	if staged := rt.StagedFrees(); staged != 0 {
		t.Fatalf("StagedFrees = %d after drain, want 0", staged)
	}
}

// TestRuntimeCrossRuntimePanics pins the misuse guard: a lease from one
// runtime must not drive a set attached to another.
func TestRuntimeCrossRuntimePanics(t *testing.T) {
	rtA, _ := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2})
	rtB, _ := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2})
	setB, err := rtB.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}
	l, err := rtA.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-runtime lease use must panic")
		}
	}()
	setB.Insert(l, 1)
}

// TestRuntimeRejectsBadAttachments pins NewSet's gatekeeping: Table 1
// violations and unknown structures are refused.
func TestRuntimeRejectsBadAttachments(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "nbr+"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("hmlist-norestart"); err == nil {
		t.Fatal("hmlist-norestart under NBR+ must be rejected (Requirement 12)")
	}
	if _, err := rt.NewSet("bogus"); err == nil {
		t.Fatal("unknown structure must be rejected")
	}
	rtHP, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "hp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtHP.NewSet("abtree"); err == nil {
		t.Fatal("abtree under HP must be rejected (no reachability validation)")
	}
}

// TestRuntimeLeakyAlias pins the scheme-name canonicalization: the "leaky"
// alias resolves to "none" once, at option defaulting, so the name a runtime
// reports does not change when its first Acquire builds the scheme.
func TestRuntimeLeakyAlias(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "leaky", MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	if got := rt.Scheme(); got != "none" {
		t.Fatalf("before the first Acquire: Scheme() = %q, want none", got)
	}
	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if got := rt.Scheme(); got != "none" {
		t.Fatalf("after the first Acquire: Scheme() = %q, want none", got)
	}
}

// TestDomainRuntimeAttachment pins the one-set-runtime shape: a Domain
// exposes its runtime, further sets share the domain's slots and bound, and
// one lease drives both the domain's own set and explicit attachments.
func TestDomainRuntimeAttachment(t *testing.T) {
	d, err := nbr.New(nbr.Options{Structure: "lazylist", RuntimeOptions: nbr.RuntimeOptions{Scheme: "nbr+", MaxThreads: 4, BagSize: 128}})
	if err != nil {
		t.Fatal(err)
	}
	rt := d.Runtime
	// A domain's scheme is sized to its own structure's announcement widths,
	// so attachments must fit under them: hmlist (2 protect slots, 2
	// reservations) fits a lazylist domain; harris (3 slots) must be
	// refused rather than overrun the reservation rows.
	if _, err := rt.NewSet("harris"); err == nil {
		t.Fatal("harris must not fit a lazylist-width domain runtime")
	}
	extra, err := rt.NewSet("hmlist")
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	d.Insert(l, 7)     // the domain's own set
	extra.Insert(l, 7) // the attached set, via the same lease
	if !d.Contains(l, 7) || !extra.Contains(l, 7) {
		t.Fatal("one lease must drive both the domain set and the attachment")
	}
	d.Delete(l, 7)
	extra.Delete(l, 7)
	l.Release()
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Retired != st.Freed {
		t.Fatalf("retired %d != freed %d", st.Retired, st.Freed)
	}
}
