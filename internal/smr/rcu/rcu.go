// Package rcu implements the epoch-per-operation reclamation the IBR
// benchmark calls "RCU" (userspace RCU read-side critical sections around
// every data-structure operation). Each operation announces the global epoch
// on entry and an idle sentinel on exit; records retired under epoch e are
// freed once every in-flight operation started at an epoch ≥ e+2. Unlike
// QSBR the announcement is precise per operation, but garbage is still
// unbounded when a thread stalls inside an operation.
package rcu

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

const idle = ^uint64(0)

// Config tunes the scheme.
type Config struct {
	// Threshold is the per-thread bag size that triggers an epoch-advance
	// attempt and sweep. Default 256.
	Threshold int
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 256
	}
	return c
}

// Scheme is an RCU-style epoch scheme instance.
type Scheme struct {
	arena    mem.Arena
	cfg      Config
	epoch    smr.Pad64
	announce []smr.Pad64
	gs       []*guard
	smr.Membership
	seg smr.SegState
}

// New creates an RCU scheme for the given arena and thread count.
func New(arena mem.Arena, threads int, cfg Config) *Scheme {
	s := &Scheme{arena: arena, cfg: cfg.withDefaults(), announce: make([]smr.Pad64, threads)}
	s.seg.Init(arena)
	s.InitFixed(threads)
	s.epoch.Store(2)
	for i := range s.announce {
		s.announce[i].Store(idle)
	}
	s.gs = make([]*guard, threads)
	for i := range s.gs {
		g := &guard{s: s, tid: i}
		g.bag.Init(&s.seg, &g.ctr, 0, true)
		s.gs[i] = g
	}
	return s
}

// Name implements smr.Scheme.
func (s *Scheme) Name() string { return "rcu" }

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// Stats implements smr.Scheme.
func (s *Scheme) Stats() smr.Stats {
	var st smr.Stats
	for _, g := range s.gs {
		g.ctr.AddTo(&st)
	}
	return st
}

// GarbageBound implements smr.Scheme: garbage is unbounded when a thread
// stalls inside a read-side critical section (property P2 is not met).
func (s *Scheme) GarbageBound() int { return smr.Unbounded }

// ReclaimBurst implements smr.Scheme: a sweep frees at most one full bag.
func (s *Scheme) ReclaimBurst() int { return s.cfg.Threshold }

// AttachRegistry implements smr.Member: epoch advance and sweeps consult
// only active threads' announcements, and the lease hooks keep the idle
// sentinel coherent across slot reuse. Must run before guards are used.
func (s *Scheme) AttachRegistry(r *smr.Registry) {
	s.Join(r, len(s.gs), "rcu", s.attachThread)
}

// attachThread resets slot tid to the idle sentinel for a new leaseholder.
func (s *Scheme) attachThread(tid int) {
	s.announce[tid].Store(idle)
}

// ReclaimAll implements smr.Quiescer: adopt any orphaned records and make
// one advance-and-sweep attempt. Part of the shared recovery path; runs
// after the slot left the active mask.
func (s *Scheme) ReclaimAll(tid int) {
	g := s.gs[tid]
	g.adopt()
	if g.bag.Len() > 0 {
		g.tryAdvance()
		g.sweep()
	}
}

// OrphanSurvivors implements smr.Quiescer: orphan the rest of the bag
// (re-tagged at adoption with the adopter's current epoch — strictly
// conservative).
func (s *Scheme) OrphanSurvivors(tid int) { s.gs[tid].bag.Orphan(s.Reg) }

// ResetSlot implements smr.Quiescer: park tid on the idle sentinel so it
// can never stall a grace period while vacant.
func (s *Scheme) ResetSlot(tid int) { s.announce[tid].Store(idle) }

// ForceRound implements smr.RoundForcer: one bracketed pass over the active
// threads' critical-section announcements — sweep's snapshot without the
// bag walk — advancing the registry's quarantine clock on demand.
func (s *Scheme) ForceRound() bool {
	return s.Membership.ForceRound(func() {
		min := ^uint64(0)
		s.ActiveMask.Range(func(i int) {
			if a := s.announce[i].Load(); a < min {
				min = a
			}
		})
		_ = min
	})
}

// Drain implements smr.Drainer: adopt all orphans, then attempt one epoch
// advance and sweep on behalf of tid. At quiescence three consecutive calls
// walk the two grace periods forward and empty the bag.
func (s *Scheme) Drain(tid int) {
	g := s.gs[tid]
	g.adopt()
	g.tryAdvance()
	g.sweep()
}

type guard struct {
	s          *Scheme
	tid        int
	bag        smr.Bag // tagged with the retiring epoch
	ctr        smr.Counters
	sinceSweep int
}

func (g *guard) Tid() int { return g.tid }

// BeginOp enters a read-side critical section: announce the current epoch
// before any record access (sequentially consistent store, so reclaimers
// ordering their scans after it cannot miss the announcement).
func (g *guard) BeginOp() {
	g.s.announce[g.tid].Store(g.s.epoch.Load())
}

// EndOp leaves the critical section.
func (g *guard) EndOp() {
	g.s.announce[g.tid].Store(idle)
}

func (g *guard) BeginRead()            {}
func (g *guard) Reserve(int, mem.Ptr)  {}
func (g *guard) EndRead()              {}
func (g *guard) Protect(int, mem.Ptr)  {}
func (g *guard) NeedsValidation() bool { return false }
func (g *guard) OnAlloc(mem.Ptr)       {}

func (g *guard) OnStale(p mem.Ptr) {
	panic("rcu: use-after-free detected: " + p.String())
}

func (g *guard) Retire(p mem.Ptr) { g.RetireBatch([]mem.Ptr{p}) }

// RetireBatch implements smr.Guard: one epoch load tags the whole batch
// (read after every record was unlinked, so no tag is older than a
// per-record loop would have written) and the sweep check runs once.
func (g *guard) RetireBatch(ps []mem.Ptr) {
	if len(ps) == 0 {
		return
	}
	g.ctr.Handoff(len(ps))
	g.bag.Append(ps, g.s.epoch.Load())
	g.retired(len(ps))
}

// RetireSegment implements smr.Guard: the handle is bagged whole under one
// epoch tag.
func (g *guard) RetireSegment(p mem.Ptr) {
	w := g.bag.Segment(p)
	if w == 0 {
		g.Retire(p)
		return
	}
	g.bag.AddSegment(p, w, g.s.epoch.Load())
	g.retired(w)
}

// retired is the sweep check after w records were bagged, amortized like
// QSBR's: a reader-blocked epoch must not turn every retire into a full
// scan of the bag and announcement array.
func (g *guard) retired(w int) {
	g.sinceSweep += w
	if g.bag.Weight() >= g.s.cfg.Threshold && g.sinceSweep >= g.s.cfg.Threshold/4 {
		g.sinceSweep = 0
		g.adopt()
		g.tryAdvance()
		g.sweep()
	}
}

// tryAdvance bumps the global epoch if no *active*, non-idle thread is
// still inside an older epoch. A departed thread's stale announcement must
// never stall grace periods.
func (g *guard) tryAdvance() {
	e := g.s.epoch.Load()
	behind := false
	g.s.ActiveMask.Range(func(i int) {
		if behind {
			return
		}
		if a := g.s.announce[i].Load(); a != idle && a < e {
			behind = true
		}
	})
	if behind {
		return
	}
	if g.s.epoch.CompareAndSwap(e, e+1) {
		g.ctr.Advanced()
	}
}

// sweep frees every bag entry that two grace periods separate from all
// in-flight operations of active threads.
func (g *guard) sweep() {
	if r := g.s.Reg; r != nil {
		r.BeginScan()
		defer r.EndScan()
	}
	min := ^uint64(0)
	g.s.ActiveMask.Range(func(i int) {
		if a := g.s.announce[i].Load(); a != idle && a < min {
			min = a
		}
	})
	g.bag.SweepIf(g.s.arena, g.tid, func(_ mem.Ptr, tag uint64) bool { return tag+2 > min })
}

// adopt pulls every orphaned record into the bag, tagged with the current
// epoch — at least as late as the original tag, so the two-grace-period
// rule stays conservative.
func (g *guard) adopt() { g.bag.Adopt(&g.s.Membership, 0, &g.s.epoch) }
