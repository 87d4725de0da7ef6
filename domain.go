package nbr

import (
	"errors"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// This file is the library's single-structure face: a Domain is a Runtime
// with exactly one Set attached, so the common case — one structure, one
// service — needs no explicit runtime management, yet every Runtime and Set
// method is available on it unchanged. Services hosting several structures
// over one shared registry/arena (one lease covering all of them) use
// NewRuntime/Runtime.NewSet directly; see runtime.go and examples/server.

// Stats re-exports the reclamation counters (see smr.Stats).
type Stats = smr.Stats

// MemStats re-exports the allocator counters (see mem.Stats).
type MemStats = mem.Stats

// Unbounded is the GarbageBound sentinel for schemes whose garbage can grow
// without limit.
const Unbounded = smr.Unbounded

// ErrNoLease is returned by Acquire when every thread slot is held.
// Callers back off and retry, use AcquireCtx to wait with a deadline, or
// treat it as admission control.
var ErrNoLease = smr.ErrRegistryFull

// ErrLeaseReaped is returned by With when the lease it was running under
// overran its deadline and was revoked by the watchdog: the handler's slot
// has already been recovered and handed on, so its work must be considered
// void (retry under a fresh lease if it is idempotent).
var ErrLeaseReaped = errors.New("nbr: lease deadline overrun; slot reaped by the watchdog")

// MinKey and MaxKey bound the usable key space; both are sentinels — Insert,
// Delete and Contains accept keys strictly between them.
const (
	MinKey uint64 = 0
	MaxKey uint64 = ^uint64(0)
)

// Schemes lists the reclamation schemes a Runtime can run, in the order the
// paper's figures present them.
func Schemes() []string { return append([]string(nil), catalog.SchemeNames...) }

// Structures lists the concurrent ordered sets a Runtime can host.
func Structures() []string { return append([]string(nil), catalog.DSNames...) }

// Options configures a Domain: the structure it hosts plus the options of
// its private Runtime. The zero value selects an NBR+-protected lazy list
// sized for a moderately parallel host.
type Options struct {
	// Structure names the concurrent ordered set (see Structures).
	// Default "lazylist".
	Structure string
	RuntimeOptions
}

// Domain is a Runtime with exactly one Set attached: goroutines Acquire a
// Lease, operate on the set through it (d.Insert(lease, key)), and Release
// it when done; leases recycle across any number of short-lived goroutines.
// Every Runtime and Set method is promoted unchanged, so the embedded
// Runtime can host further sets and d.Name() names the structure. All
// methods except Len and Validate are safe for concurrent use.
type Domain struct {
	*Runtime
	*Set
}

// New creates a Domain: a private one-structure Runtime whose scheme is
// sized to exactly the announcement widths the structure declares. Unlike a
// bare Runtime — which defers scheme construction so later attachments can
// widen it — a Domain materializes its scheme eagerly: the structure is
// known, its widths are final, and the domain is ready to serve its first
// Acquire without a construction step on the lease path. Sets attached to
// d.Runtime later must fit those widths.
func New(opts Options) (*Domain, error) {
	if opts.Structure == "" {
		opts.Structure = "lazylist"
	}
	rt, err := NewRuntime(opts.RuntimeOptions)
	if err != nil {
		return nil, err
	}
	set, err := rt.NewSet(opts.Structure)
	if err != nil {
		return nil, err
	}
	if _, err := rt.materialize(); err != nil {
		return nil, err
	}
	return &Domain{Runtime: rt, Set: set}, nil
}

// MemStats returns the domain set's own allocator counters (live records ≈
// resident memory); d.Runtime.MemStats sums every attached set.
func (d *Domain) MemStats() MemStats { return d.Set.MemStats() }

// Lease is one goroutine's membership in a Runtime (and so in every Set
// attached to it): a dense thread slot plus the per-thread guard every
// operation runs under. A Lease must be used by one goroutine at a time and
// released when done; after Release it must not be used.
type Lease struct {
	rt *Runtime
	l  *smr.Lease
	g  smr.Guard
}

// Tid returns the dense thread slot this lease occupies (diagnostic; slots
// recycle across leases).
func (l *Lease) Tid() int { return l.l.Tid() }

// Release returns the slot to the registry through the shared recovery
// path. The departing thread's unreclaimed records are reclaimed or handed
// to the runtime's orphan list — nothing leaks, whatever state the protocol
// was in. Releasing a lease the watchdog already reaped is a counted no-op
// (see Runtime.RevokedReleases).
func (l *Lease) Release() {
	l.rt.unwatchLease(l.l)
	l.l.Release()
}

// SetDeadline overrides this lease's reap deadline: the watchdog revokes the
// lease if it is still outstanding at t. A zero t clears the deadline,
// opting this lease out of reaping (e.g. a long-running maintenance task on
// a runtime whose LeaseTimeout is tuned for request handlers).
func (l *Lease) SetDeadline(t time.Time) {
	if t.IsZero() {
		l.rt.unwatchLease(l.l)
		return
	}
	l.rt.watchLease(l.l, t)
}

// Revoked reports whether the watchdog reaped this lease. A revoked lease
// must not be used: operations on it panic sigsim.Revoked (converted to
// ErrLeaseReaped by With), and its Release is a counted no-op.
func (l *Lease) Revoked() bool { return l.l.Revoked() }
