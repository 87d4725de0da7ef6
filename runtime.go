package nbr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// This file is the shared reclamation runtime. The paper's machinery —
// signals, reservations, bounded garbage — is per-*thread*, not
// per-*structure*, so a service hosting several concurrent sets should not
// pay one lease, one registry and one signal group per structure. A Runtime
// owns exactly one smr.Registry, one scheme instance and one shared arena (a
// mem.Hub routing to each structure's pool by the arena tag carried in every
// handle), and hands out a single Lease valid across every Set attached to
// it. One lease per request covers all of a handler's structures; the
// garbage bound is declared once per runtime and covers every structure's
// retired records, because they all live in the same per-thread bags.
//
// A Domain (nbr.New) is this same Runtime with exactly one Set attached.

// RuntimeOptions configures a Runtime. The zero value selects NBR+ sized
// for a moderately parallel host.
type RuntimeOptions struct {
	// Scheme names the reclamation scheme (see Schemes). Default "nbr+".
	Scheme string
	// MaxThreads is the lease-registry capacity shared by every attached
	// structure: the most goroutines that can hold a lease at once. Default
	// 2·GOMAXPROCS, at least 8.
	MaxThreads int
	// Structures pre-declares the structure kinds this runtime will host
	// (see Structures() for the names). The scheme's announcement widths are
	// sized to cover every declared kind from the width registry, so a
	// structure named here can be attached with NewSet at any time — even
	// after leases are held — without widening the scheme. Leaving it empty
	// sizes the scheme to exactly the structures attached before the first
	// lease (see NewRuntime).
	Structures []string

	// LeaseTimeout, when positive, arms the lease watchdog: every lease gets
	// a reap deadline of Acquire time + LeaseTimeout (override per lease with
	// SetDeadline). A holder still outstanding past its deadline is presumed
	// wedged and reaped — its lease value is revoked (a late Release becomes
	// a counted no-op), a sticky neutralization signal kills a zombie still
	// running on a signal-capable scheme, the shared recovery path quiesces
	// the slot from the watchdog's goroutine, and the slot is handed to the
	// next AcquireCtx waiter. Zero disables reaping (the pre-watchdog
	// behavior: a lost lease strands its slot).
	LeaseTimeout time.Duration

	// The scheme knobs, as in the experiments (zero selects each scheme's
	// default; see DESIGN.md §6 for the rationale behind the defaults).
	BagSize    int     // NBR limbo-bag HiWatermark
	LoFraction float64 // NBR+ LoWatermark position
	ScanFreq   int     // NBR+ announceTS scan cadence
	Threshold  int     // retire-buffer depth for hp/he/ibr/qsbr/rcu
	EraFreq    int     // era-advance period for he/ibr
	SendSpin   int     // simulated signal-send cost
	HandleSpin int     // simulated signal-delivery cost
}

func (o RuntimeOptions) withDefaults() RuntimeOptions {
	if o.Scheme == "" {
		o.Scheme = "nbr+"
	}
	o.Scheme = catalog.Canonical(o.Scheme)
	if o.MaxThreads <= 0 {
		o.MaxThreads = 2 * runtime.GOMAXPROCS(0)
		if o.MaxThreads < 8 {
			o.MaxThreads = 8
		}
	}
	return o
}

// Runtime is one shared reclamation substrate: one thread-lease registry,
// one reclamation scheme, one arena hub, any number of attached structures.
// All methods are safe for concurrent use except where noted on Set.
//
// The scheme is constructed lazily, at the first Acquire (or Drain): until
// then NewSet grows the announcement widths monotonically to the maximum the
// attached structures declare, so the scheme's reservation and hazard scans
// run at the paper-exact narrow per-DS widths (≤3 reservations for every
// structure in the harness) instead of a conservative global worst case —
// the same widths a single-structure Domain gets. Once the scheme exists the
// widths are frozen: a later NewSet whose structure fits still attaches (and
// is cache-sized for every live slot), but one declaring wider needs is
// rejected — pre-declare such structures via RuntimeOptions.Structures.
type Runtime struct {
	opts RuntimeOptions
	hub  *mem.Hub
	reg  *smr.Registry

	mu   sync.Mutex      // guards sets, req and scheme materialization
	req  ds.Requirements // announcement widths (grown until materialized)
	sets []*Set

	// sch is the materialized scheme: nil until the first Acquire/Drain,
	// immutable after. The atomic pointer keeps the lease path lock-free
	// once materialized; materialization itself serializes under mu.
	sch atomic.Pointer[schemeBox]

	// Admission control: AcquireCtx callers blocked on a full registry wait
	// here in FIFO order; every lease release hands the head a baton.
	admitMu sync.Mutex
	waiters []chan struct{}

	// Lease watchdog: outstanding deadlines keyed by the smr lease (unique
	// per acquire). The reaper goroutine runs only while deadlines exist.
	watchMu sync.Mutex
	watched map[*smr.Lease]time.Time
	watchOn bool

	// rec is the flight recorder shared by the whole pipeline (registry,
	// scheme, signal group, hub, admission). Created disabled — every
	// instrumented hot path costs one predictable branch — and switched on
	// with Observe; Debug()/expvar expose its timeline and histograms.
	rec *obs.Recorder
}

// schemeBox wraps the scheme interface so it fits an atomic.Pointer.
type schemeBox struct {
	s smr.Scheme
}

// NewRuntime creates a Runtime with no structures attached. Structure kinds
// named in opts.Structures are resolved through the width registry and
// widen the (not-yet-built) scheme up front; unknown names are rejected.
func NewRuntime(opts RuntimeOptions) (*Runtime, error) {
	opts = opts.withDefaults()
	req, err := catalog.MaxRequirements(opts.Structures)
	if err != nil {
		return nil, fmt.Errorf("nbr: RuntimeOptions.Structures: %w", err)
	}
	rt := &Runtime{
		opts: opts,
		req:  req,
		hub:  mem.NewHub(opts.MaxThreads),
		reg:  smr.NewRegistry(opts.MaxThreads),
		rec:  obs.NewRecorder(opts.MaxThreads),
	}
	// Recorder wiring precedes Bind (materialize), so the scheme adopts the
	// same timeline when it is built.
	rt.reg.SetRecorder(rt.rec)
	rt.hub.SetRecorder(rt.rec)
	// The admission baton is handed only after the slot has fully entered
	// quarantine (AfterRelease, not OnRelease): the woken waiter's Acquire
	// must be servable by the slot that was just freed.
	rt.reg.AfterRelease(rt.admitNext)
	return rt, nil
}

// materialize builds the scheme at the widths grown so far and wires it into
// the registry; idempotent, and a no-op once built. Every path that hands
// out a guard (Acquire) or drives the scheme (Drain, ForceRound) goes
// through it, so "materialized" and "a lease may exist" coincide — which is
// why NewSet can treat a materialized scheme as width-frozen.
func (rt *Runtime) materialize() (smr.Scheme, error) {
	if b := rt.sch.Load(); b != nil {
		return b.s, nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if b := rt.sch.Load(); b != nil {
		return b.s, nil
	}
	req := rt.req
	if req.Threshold <= 0 {
		req.Threshold = ds.DefaultThreshold
	}
	cfg := catalog.SchemeConfig{
		BagSize:    rt.opts.BagSize,
		LoFraction: rt.opts.LoFraction,
		ScanFreq:   rt.opts.ScanFreq,
		Threshold:  rt.opts.Threshold,
		EraFreq:    rt.opts.EraFreq,
		SendSpin:   rt.opts.SendSpin,
		HandleSpin: rt.opts.HandleSpin,
	}
	scheme, err := catalog.NewSchemeFor(rt.opts.Scheme, rt.hub, rt.opts.MaxThreads, cfg, req)
	if err != nil {
		return nil, err
	}
	// Hook order matters: Bind registers the scheme's quiesce hook first, so
	// a departing thread's frees reach the hub's staging buffers and its
	// allocator caches before the drain hook flushes them.
	rt.reg.Bind(scheme)
	if burst := scheme.ReclaimBurst(); burst > 0 {
		rt.reg.OnAcquire(func(tid int) { rt.hub.SizeCache(tid, burst) })
	}
	rt.reg.OnRelease(func(tid int) { rt.hub.DrainCache(tid) })
	rt.req = req
	rt.sch.Store(&schemeBox{s: scheme})
	return scheme, nil
}

// NewSet attaches a structure to the runtime: the structure's pool is
// created under the next arena tag and registered with the hub, so records
// it retires are routed home from the runtime's shared bags. The returned
// Set shares the runtime's thread slots, stats and garbage bound with every
// other attachment.
//
// Before the first lease, an attachment may widen the scheme's announcement
// widths (they grow to the maximum any attached structure declares). After
// the first lease the widths are frozen: a structure that fits them still
// attaches — its pool is sized for every live slot exactly as if it had
// been attached up front — but a wider one is rejected; pre-declare it in
// RuntimeOptions.Structures to reserve its widths.
func (rt *Runtime) NewSet(structure string) (*Set, error) {
	if !catalog.Runnable(structure, rt.opts.Scheme) {
		return nil, fmt.Errorf("nbr: %s is not runnable under %s (the paper's Table 1)",
			structure, rt.opts.Scheme)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	tag := rt.hub.NextTag()
	if tag >= mem.MaxTags {
		return nil, fmt.Errorf("nbr: runtime full (%d structures attached)", tag)
	}
	inst, err := catalog.NewDSArena(structure, mem.Config{MaxThreads: rt.opts.MaxThreads, Tag: tag})
	if err != nil {
		return nil, err
	}
	if rt.sch.Load() != nil {
		// Width-frozen: the scheme exists, so its reservation rows and
		// hazard arrays cannot grow under live guards.
		if inst.Req.Slots > rt.req.Slots || inst.Req.Reservations > rt.req.Reservations {
			return nil, fmt.Errorf("nbr: %s needs %d protect slots and %d reservations, but the runtime's scheme is already built at %d/%d; attach it before the first lease or pre-declare it in RuntimeOptions.Structures",
				structure, inst.Req.Slots, inst.Req.Reservations, rt.req.Slots, rt.req.Reservations)
		}
	} else {
		rt.req = rt.req.Max(inst.Req)
	}
	rt.hub.Attach(tag, inst.Arena)
	s := &Set{rt: rt, inst: inst, name: structure}
	rt.sets = append(rt.sets, s)
	return s, nil
}

// Widths returns the announcement widths the runtime's scans run at: the
// number of Protect slots and Reserve slots per thread. Before the first
// lease they track the widest attached structure (every scan is N·width
// entries, so narrow widths are the Domain-parity fast path); after it they
// are frozen.
func (rt *Runtime) Widths() (protectSlots, reservations int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	req := rt.req
	if rt.sch.Load() == nil {
		// Report what materialize would build right now.
		if req.Slots <= 0 {
			req.Slots = ds.DefaultRequirements.Slots
		}
		if req.Reservations <= 0 {
			req.Reservations = ds.DefaultRequirements.Reservations
		}
	}
	return req.Slots, req.Reservations
}

// StagedFrees returns the number of records currently sitting in the shared
// arena's per-thread free-staging buffers: counted as freed by the scheme,
// not yet released to their owning pools. Every lease release flushes its
// slot's buffers, so this reads zero once all leases are released.
func (rt *Runtime) StagedFrees() int { return int(rt.hub.Staged()) }

// Acquire leases a thread slot valid across every Set attached to this
// runtime. It fails fast with ErrNoLease when the registry is full; use
// AcquireCtx to wait instead. The first Acquire freezes the scheme's
// announcement widths (see NewSet).
func (rt *Runtime) Acquire() (*Lease, error) {
	scheme, err := rt.materialize()
	if err != nil {
		return nil, err
	}
	l, err := rt.reg.Acquire()
	if err != nil {
		return nil, err
	}
	if d := rt.opts.LeaseTimeout; d > 0 {
		rt.watchLease(l, time.Now().Add(d))
	}
	return &Lease{rt: rt, l: l, g: scheme.Guard(l.Tid())}, nil
}

// With runs fn under a freshly acquired lease and guarantees the lease is
// returned through the shared recovery path whatever happens inside: on a
// clean return, on an error, and on a panic — which is recovered, the lease
// released, and then rethrown. A panic caused by the watchdog reaping this
// very lease (the holder overran its deadline and got neutralized) is not
// rethrown: the release is already a counted no-op and fn's work is void, so
// With reports ErrLeaseReaped instead. This is the recommended way to write
// request handlers: a handler that panics or overruns can never strand a
// slot.
func (rt *Runtime) With(ctx context.Context, fn func(*Lease) error) (err error) {
	l, err := rt.AcquireCtx(ctx)
	if err != nil {
		return err
	}
	defer func() {
		p := recover()
		l.Release()
		if p == nil {
			if err == nil && l.Revoked() {
				err = ErrLeaseReaped
			}
			return
		}
		if _, ok := p.(sigsim.Revoked); ok {
			err = ErrLeaseReaped
			return
		}
		panic(p)
	}()
	// The lease session runs under pprof labels so CPU profiles attribute
	// samples — including the reclamation work fn's retires trigger — to the
	// scheme doing it.
	pprof.Do(ctx, pprof.Labels("scheme", rt.opts.Scheme, "structure", "runtime"), func(context.Context) {
		err = fn(l)
	})
	return err
}

// watchLease registers (or moves) a lease's reap deadline and makes sure the
// watchdog goroutine is running.
func (rt *Runtime) watchLease(l *smr.Lease, at time.Time) {
	rt.watchMu.Lock()
	if rt.watched == nil {
		rt.watched = make(map[*smr.Lease]time.Time)
	}
	rt.watched[l] = at
	if !rt.watchOn {
		rt.watchOn = true
		go func() {
			// Label the reaper so profiles attribute recovery work (which
			// runs on this goroutine, not the wedged holder's) to it.
			pprof.Do(context.Background(),
				pprof.Labels("scheme", rt.opts.Scheme, "structure", "watchdog"),
				func(context.Context) { rt.watchdog() })
		}()
	}
	rt.watchMu.Unlock()
}

// unwatchLease drops a lease from the watchdog (voluntary release, or a
// deadline cleared with SetDeadline's zero time).
func (rt *Runtime) unwatchLease(l *smr.Lease) {
	rt.watchMu.Lock()
	delete(rt.watched, l)
	rt.watchMu.Unlock()
}

// watchdog is the reaper loop: it sleeps until the earliest outstanding
// deadline, revokes every over-deadline lease through the registry's shared
// recovery path (Registry.Revoke — recovery runs HERE, on the reaper's
// goroutine, including the allocator-cache drain), and exits when no
// deadline remains (the next watchLease restarts it). A revoked slot's
// after-release hook hands the admission baton to the longest AcquireCtx
// waiter exactly like a voluntary release.
func (rt *Runtime) watchdog() {
	for {
		rt.watchMu.Lock()
		if len(rt.watched) == 0 {
			rt.watchOn = false
			rt.watchMu.Unlock()
			return
		}
		now := time.Now()
		type overdue struct {
			l  *smr.Lease
			at time.Time
		}
		var expired []overdue
		next := now.Add(time.Minute)
		for l, at := range rt.watched {
			if !at.After(now) {
				expired = append(expired, overdue{l, at})
				delete(rt.watched, l)
			} else if at.Before(next) {
				next = at
			}
		}
		rt.watchMu.Unlock()
		if len(expired) > 0 {
			for _, e := range expired {
				if rt.reg.Revoke(e.l) {
					// Reap latency: deadline → revocation delivered.
					rt.rec.Observe(obs.HistReapLatency, time.Since(e.at).Nanoseconds())
					rt.rec.Sys(obs.EvReap, uint64(e.l.Tid()))
				}
			}
			continue // deadlines may have moved while we reaped
		}
		d := time.Until(next)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		time.Sleep(d)
	}
}

// ReapedLeases returns how many leases the watchdog has revoked from
// over-deadline holders.
func (rt *Runtime) ReapedLeases() uint64 { return rt.reg.ReapedLeases() }

// RevokedReleases returns how many Release calls arrived on an
// already-reaped lease — each one a zombie holder waking up late, made
// harmless by the distinct-lease-value guard.
func (rt *Runtime) RevokedReleases() uint64 { return rt.reg.RevokedReleases() }

// OrphansAdopted returns how many orphaned records reclaimers have adopted
// from the runtime's shared orphan list.
func (rt *Runtime) OrphansAdopted() uint64 { return rt.reg.OrphansAdopted() }

// AcquireCtx leases a thread slot, blocking while the registry is full
// until a slot frees up or ctx is done. Blocked callers are admitted in
// FIFO order — each lease release hands the longest waiter a baton — so an
// oversubscribed server degrades to an orderly queue with deadlines instead
// of a spin-retry storm. (A concurrent non-blocking Acquire can still take
// a freed slot before the woken waiter retries; the waiter then rejoins at
// the tail. Fairness is among waiters, not against barging.)
func (rt *Runtime) AcquireCtx(ctx context.Context) (*Lease, error) {
	if l, err := rt.Acquire(); err == nil || !errors.Is(err, ErrNoLease) {
		return l, err
	}
	// Admission wait runs first enqueue → admitted, spanning any barge-forced
	// re-queues; 0 means the recorder was off when the wait began.
	t0 := rt.rec.Clock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ch := make(chan struct{}, 1)
		rt.admitMu.Lock()
		rt.waiters = append(rt.waiters, ch)
		depth := len(rt.waiters)
		rt.admitMu.Unlock()
		rt.rec.Adm(obs.EvAdmitEnqueue, uint64(depth))
		// A release that landed between the failed Acquire and the enqueue
		// had no waiter to wake; re-try once now that we are visible.
		if l, err := rt.Acquire(); err == nil || !errors.Is(err, ErrNoLease) {
			rt.abandon(ch)
			if err == nil {
				rt.rec.ObserveSince(obs.HistAdmissionWait, t0)
			}
			return l, err
		}
		select {
		case <-ctx.Done():
			rt.abandon(ch)
			rt.rec.Adm(obs.EvAdmitCancel, 0)
			return nil, ctx.Err()
		case <-ch:
			if l, err := rt.Acquire(); err == nil || !errors.Is(err, ErrNoLease) {
				if err == nil {
					rt.rec.ObserveSince(obs.HistAdmissionWait, t0)
					rt.rec.Adm(obs.EvAdmitBaton, 0)
				}
				return l, err
			}
			// A barger took the slot; rejoin the queue at the tail.
		}
	}
}

// admitNext hands the release baton to the longest-waiting AcquireCtx
// caller. The send happens under admitMu, which is what lets abandon
// distinguish "still queued" from "baton already handed" without a race.
func (rt *Runtime) admitNext() {
	rt.admitMu.Lock()
	defer rt.admitMu.Unlock()
	if len(rt.waiters) > 0 {
		ch := rt.waiters[0]
		rt.waiters = rt.waiters[1:]
		ch <- struct{}{} // buffered, waiter enqueued once: never blocks
	}
}

// abandon removes a waiter from the queue (context cancelled, or admitted
// through a side door). If the waiter had already been handed the baton,
// the baton is forwarded so the wakeup is not lost.
func (rt *Runtime) abandon(ch chan struct{}) {
	rt.admitMu.Lock()
	for i := range rt.waiters {
		if rt.waiters[i] == ch {
			rt.waiters = append(rt.waiters[:i], rt.waiters[i+1:]...)
			rt.admitMu.Unlock()
			return
		}
	}
	// Not queued: admitNext dequeued us, and its send completed under
	// admitMu, so the baton is in the buffer. Pass it on.
	var forward bool
	select {
	case <-ch:
		forward = true
	default:
	}
	rt.admitMu.Unlock()
	if forward {
		rt.admitNext()
	}
}

// ForceRound drives one completed reclamation scan round through the
// scheme — a bracketed collection over the active announcement state — so
// slot-quarantine aging, which rides the scan-round clock, advances on
// demand instead of waiting for organic reclamation cadence. The registry
// calls this internally when an Acquire finds an un-aged quarantined slot;
// it is exported for operators that want to age the quarantine ahead of a
// known admission burst. Returns false if the scheme cannot force rounds.
func (rt *Runtime) ForceRound() bool {
	scheme, err := rt.materialize()
	if err != nil {
		return false
	}
	if f, ok := scheme.(smr.RoundForcer); ok {
		return f.ForceRound()
	}
	return false
}

// ForcedRounds returns how many scan rounds lease admission forced to age
// quarantined slots (operational diagnostic).
func (rt *Runtime) ForcedRounds() uint64 { return rt.reg.ForcedRounds() }

// FallbackReuses returns how many times a quarantined slot was reused on
// the no-scanner proof instead of the two-round aging guarantee. With every
// scheme in the harness this stays zero: the runtime forces the missing
// rounds instead.
func (rt *Runtime) FallbackReuses() uint64 { return rt.reg.FallbackReuses() }

// MaxThreads returns the registry capacity shared by all attached sets.
func (rt *Runtime) MaxThreads() int { return rt.opts.MaxThreads }

// ActiveThreads returns the number of currently held leases (approximate
// under churn).
func (rt *Runtime) ActiveThreads() int { return rt.reg.Active().Count() }

// Waiters returns the number of AcquireCtx callers currently queued.
func (rt *Runtime) Waiters() int {
	rt.admitMu.Lock()
	defer rt.admitMu.Unlock()
	return len(rt.waiters)
}

// Scheme returns the reclamation scheme's canonical name (the "leaky"
// alias reports as "none").
func (rt *Runtime) Scheme() string { return rt.opts.Scheme }

// Structures returns the names of the attached sets, in attachment order.
func (rt *Runtime) Structures() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := make([]string, len(rt.sets))
	for i, s := range rt.sets {
		names[i] = s.name
	}
	return names
}

// Stats returns the aggregate reclamation counters across every attached
// structure — one scheme, one set of bags, one tally. Before the first lease
// every counter is zero (nothing can retire without a lease), so the zero
// value is returned without building the scheme.
func (rt *Runtime) Stats() Stats {
	if b := rt.sch.Load(); b != nil {
		return b.s.Stats()
	}
	return Stats{}
}

// MemStats returns the allocator counters summed across every attached
// structure's pool. SlotSize is reported only while exactly one structure
// is attached (pools of different record types have different slot sizes).
func (rt *Runtime) MemStats() MemStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var agg MemStats
	for _, s := range rt.sets {
		st := s.inst.MemStats()
		agg.Allocs += st.Allocs
		agg.Frees += st.Frees
		agg.Live += st.Live
		agg.LiveBytes += st.LiveBytes
		agg.SlabBytes += st.SlabBytes
		agg.GlobalOps += st.GlobalOps
	}
	if len(rt.sets) == 1 {
		agg.SlotSize = rt.sets[0].inst.MemStats().SlotSize
	}
	return agg
}

// GarbageBound returns the runtime's declared worst-case retired-but-unfreed
// record count (or Unbounded). It is declared once per runtime and covers
// every attached structure: all structures retire into the same per-thread
// bags, so the per-structure garbage aggregates inside the single scheme
// bound instead of summing one bound per structure. It reads 0 until the
// first lease builds the scheme — no lease, no retire, no garbage — and
// reading it does not build the scheme, which would freeze the widths of
// structures attached later with NewSet.
func (rt *Runtime) GarbageBound() int {
	if b := rt.sch.Load(); b != nil {
		return b.s.GarbageBound()
	}
	return 0
}

// Drain adopts any orphaned records and reclaims everything reclaimable
// across all attached structures, using a temporary lease. At quiescence it
// runs until every retired record is freed; under concurrent traffic it is
// a best-effort pass. Use it before reading final Stats or shutting down.
func (rt *Runtime) Drain() error {
	scheme, err := rt.materialize()
	if err != nil {
		return err
	}
	dr, ok := scheme.(smr.Drainer)
	if !ok {
		return nil
	}
	l, err := rt.reg.Acquire()
	if err != nil {
		return err
	}
	defer l.Release()
	for i := 0; i < 64; i++ {
		st := scheme.Stats()
		if st.Retired == st.Freed {
			break
		}
		dr.Drain(l.Tid())
	}
	return nil
}

// Set is one structure attached to a Runtime. Operations take the lease
// explicitly (set.Insert(lease, key)) because one lease covers many sets.
// Len and Validate are quiescent: no concurrent mutators.
type Set struct {
	rt   *Runtime
	inst catalog.Instance
	name string
}

// Name returns the structure's name (see Structures).
func (s *Set) Name() string { return s.name }

// guardOf returns the per-thread guard behind l, refusing a lease from a
// different runtime — its tid indexes another registry's slots, so honoring
// it would alias two threads' announcement rows — and killing a zombie: a
// lease the watchdog reaped panics sigsim.Revoked on its next operation, so
// holders of schemes without mid-operation signal delivery are still caught
// before they can race the slot's successor. With converts the unwind into
// ErrLeaseReaped.
func (s *Set) guardOf(l *Lease) smr.Guard {
	if l.rt != s.rt {
		panic("nbr: lease used with a Set attached to a different Runtime")
	}
	if l.l.Revoked() {
		panic(sigsim.Revoked{})
	}
	return l.g
}

// Contains reports whether key is in the set.
func (s *Set) Contains(l *Lease, key uint64) bool { return s.inst.Set.Contains(s.guardOf(l), key) }

// Insert adds key, reporting false if it was already present.
func (s *Set) Insert(l *Lease, key uint64) bool { return s.inst.Set.Insert(s.guardOf(l), key) }

// Delete removes key, reporting false if it was absent.
func (s *Set) Delete(l *Lease, key uint64) bool { return s.inst.Set.Delete(s.guardOf(l), key) }

// Len counts the keys in the set. Quiescent: no concurrent mutators.
func (s *Set) Len() int { return s.inst.Set.Len() }

// Validate checks the structure's invariants. Quiescent.
func (s *Set) Validate() error { return s.inst.Set.Validate() }

// MemStats returns this structure's own allocator counters (the runtime's
// MemStats sums them across structures).
func (s *Set) MemStats() MemStats { return s.inst.MemStats() }
