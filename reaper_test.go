package nbr_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbr"
)

// waitUntil polls cond for up to ~2s; the watchdog's cadence is wall-clock,
// so these tests observe it rather than assume exact timing.
func waitUntil(cond func() bool) bool {
	for i := 0; i < 2000; i++ {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// TestRuntimeWatchdogReap pins the reaper's core contract: a holder that
// overruns LeaseTimeout is revoked, its late Release is a counted no-op, and
// its slot recycles to a new holder.
func TestRuntimeWatchdogReap(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		MaxThreads: 2, BagSize: 128, LeaseTimeout: 10 * time.Millisecond,
	})
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
	// The holder wedges: never releases. The watchdog must reap it.
	if !waitUntil(func() bool { return rt.ReapedLeases() == 1 }) {
		t.Fatalf("holder not reaped: ReapedLeases = %d", rt.ReapedLeases())
	}
	if !l.Revoked() {
		t.Fatal("reaped lease does not report Revoked")
	}
	if got := rt.ActiveThreads(); got != 0 {
		t.Fatalf("reaped holder still active: ActiveThreads = %d", got)
	}

	// The zombie wakes up and releases late: a counted no-op.
	l.Release()
	if got := rt.RevokedReleases(); got != 1 {
		t.Fatalf("RevokedReleases = %d, want 1", got)
	}

	// The slot must recycle: both slots acquirable again (AcquireCtx waits
	// out quarantine aging).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	held := make([]*nbr.Lease, 2)
	for i := range held {
		if held[i], err = rt.AcquireCtx(ctx); err != nil {
			t.Fatalf("slot %d not reacquirable after reap: %v", i, err)
		}
	}
	for _, h := range held {
		h.Release()
	}
	// No further reaps: the new holders released before their deadlines...
	// unless the scheduler stalled this test past 10ms, which Revoke then
	// handles identically — so only the zombie accounting is asserted.
	if got, want := rt.RevokedReleases(), uint64(1); got != want {
		t.Fatalf("voluntary releases counted as revoked: %d, want %d", got, want)
	}
}

// TestRuntimeWithReaped pins With's reap reporting: a handler that overruns
// and returns cleanly gets ErrLeaseReaped (its work is void), and a handler
// killed mid-operation by the revocation unwinds into the same error.
func TestRuntimeWithReaped(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		MaxThreads: 2, BagSize: 128, LeaseTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}

	// Overrun, then return cleanly: With must report the reap.
	err = rt.With(context.Background(), func(l *nbr.Lease) error {
		if !waitUntil(l.Revoked) {
			t.Fatal("holder not reaped while wedged inside With")
		}
		return nil
	})
	if !errors.Is(err, nbr.ErrLeaseReaped) {
		t.Fatalf("With after a reap returned %v, want ErrLeaseReaped", err)
	}

	// Overrun, then touch the structure: the zombie is killed at the
	// operation boundary and With converts the unwind.
	err = rt.With(context.Background(), func(l *nbr.Lease) error {
		if !waitUntil(l.Revoked) {
			t.Fatal("holder not reaped while wedged inside With")
		}
		set.Insert(l, 42) // must panic sigsim.Revoked, not reach the set
		t.Fatal("revoked lease operated on the set")
		return nil
	})
	if !errors.Is(err, nbr.ErrLeaseReaped) {
		t.Fatalf("With after a killed operation returned %v, want ErrLeaseReaped", err)
	}

	// A handler error outranks nothing — it passes through untouched when no
	// reap happened.
	rtFast, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtFast.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("handler failed")
	if err := rtFast.With(context.Background(), func(*nbr.Lease) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("With swallowed the handler error: %v", err)
	}
}

// TestRuntimeWithPanicReleases pins the panic-unwind half of With: a user
// panic is rethrown after the lease went back through the shared recovery
// path, so a crashing handler can never strand a slot.
func TestRuntimeWithPanicReleases(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 1, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("handler crashed")
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("With rethrew %v, want the original panic", r)
			}
		}()
		_ = rt.With(context.Background(), func(l *nbr.Lease) error {
			set.Insert(l, 7)
			panic(boom)
		})
		t.Fatal("With returned through a panic")
	}()
	// The single slot must be free again immediately (voluntary-release
	// path: no quarantine wait needed beyond AcquireCtx's patience).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.With(ctx, func(l *nbr.Lease) error {
		if !set.Contains(l, 7) {
			t.Error("pre-panic insert lost")
		}
		set.Delete(l, 7)
		return nil
	}); err != nil {
		t.Fatalf("slot stranded after a handler panic: %v", err)
	}
}

// TestDomainWith pins With on a Domain: the envelope is the runtime's, and
// handlers operate on the domain's own set through the lease.
func TestDomainWith(t *testing.T) {
	d, err := nbr.New(nbr.Options{RuntimeOptions: nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.With(context.Background(), func(l *nbr.Lease) error {
		if !d.Insert(l, 11) {
			t.Error("fresh key reported present")
		}
		if !d.Contains(l, 11) {
			t.Error("inserted key missing")
		}
		d.Delete(l, 11)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseSetDeadline pins the per-lease override: a zero SetDeadline opts a
// lease out of a runtime-wide LeaseTimeout, and an explicit deadline arms the
// watchdog on a runtime that has none.
func TestLeaseSetDeadline(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		MaxThreads: 2, BagSize: 128, LeaseTimeout: 15 * time.Millisecond,
	})
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
	l.SetDeadline(time.Time{}) // opt out: a long-running maintenance task
	time.Sleep(60 * time.Millisecond)
	if l.Revoked() || rt.ReapedLeases() != 0 {
		t.Fatalf("deadline-cleared lease was reaped (reaps = %d)", rt.ReapedLeases())
	}
	l.Release()

	// Explicit deadline on a watchdog-less runtime.
	rtBare, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtBare.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	l2, err := rtBare.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	l2.SetDeadline(time.Now().Add(5 * time.Millisecond))
	if !waitUntil(func() bool { return rtBare.ReapedLeases() == 1 }) {
		t.Fatal("explicit SetDeadline did not arm the watchdog")
	}
	l2.Release()
	if got := rtBare.RevokedReleases(); got != 1 {
		t.Fatalf("RevokedReleases = %d, want 1", got)
	}
}

// TestRuntimeCancelVsReapRace is the regression stress for the AcquireCtx
// admission queue under concurrent cancellation and reaping: a waiter whose
// context fires while a baton (from a voluntary release OR a reap on the
// watchdog's goroutine) is already in its buffer must re-forward it, or the
// admission chain breaks and a later waiter starves. The storm drives all
// three events — cancel, release, reap — through the queue at once; the
// verdict is that a patient waiter is always admitted afterwards.
func TestRuntimeCancelVsReapRace(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		MaxThreads: 2, BagSize: 128, ScanFreq: 4,
		LeaseTimeout: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	var admitted, cancelled, wedged atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*2862933555777941757 + 3037000493))
			for i := 0; i < rounds; i++ {
				// Tiny, jittered timeouts: many fire exactly while a baton
				// is being handed over — the race under test.
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(rng.Intn(1500))*time.Microsecond)
				l, err := rt.AcquireCtx(ctx)
				cancel()
				if err != nil {
					cancelled.Add(1)
					continue
				}
				admitted.Add(1)
				switch i % 3 {
				case 0: // clean, brief hold
					set.Insert(l, uint64(rng.Intn(31))+1)
					l.Release()
				case 1: // wedge: the watchdog must reap it to free the slot
					wedged.Add(1)
					// Lease deliberately leaked to the reaper.
				default: // hold across the reap window, then release late
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					l.Release()
				}
			}
		}(w)
	}
	wg.Wait()

	// Every wedged holder must eventually be reaped (reaps can exceed the
	// wedge count: slow case-2 holders crossing their deadline are reaped
	// too, and their late Release is the counted no-op — by design).
	if !waitUntil(func() bool { return rt.ReapedLeases() >= wedged.Load() }) {
		t.Fatalf("reaps stalled: %d reaped of %d wedged", rt.ReapedLeases(), wedged.Load())
	}

	// The verdict: after the storm, patient waiters get every slot. A lost
	// baton would leave AcquireCtx hanging here until the timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	held := make([]*nbr.Lease, rt.MaxThreads())
	for i := range held {
		if held[i], err = rt.AcquireCtx(ctx); err != nil {
			t.Fatalf("admission chain broken after cancel/reap storm: slot %d: %v", i, err)
		}
		held[i].SetDeadline(time.Time{}) // don't reap the verdict holders
	}
	if w := rt.Waiters(); w != 0 {
		t.Fatalf("waiter queue not empty after storm: %d", w)
	}
	for _, l := range held {
		l.Release()
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Retired != st.Freed {
		t.Fatalf("storm leaked records: retired %d != freed %d", st.Retired, st.Freed)
	}
	if fb := rt.FallbackReuses(); fb != 0 {
		t.Fatalf("FallbackReuses = %d, want 0", fb)
	}
	t.Logf("storm: %d admitted, %d cancelled, %d wedged, %d reaped, %d zombie releases",
		admitted.Load(), cancelled.Load(), wedged.Load(), rt.ReapedLeases(), rt.RevokedReleases())
}
