// Package leaky implements the paper's "none" baseline: retire is a no-op
// and records are never freed. It has the lowest per-operation overhead of
// any scheme and unbounded memory growth, providing the throughput ceiling
// and the memory-usage worst case in every experiment.
package leaky

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Scheme is the leaky (no reclamation) scheme.
type Scheme struct {
	gs []*guard

	// sa resolves segment handles so RetireSegment can account the member
	// records a leaked segment stands for; the records still leak.
	sa mem.SegmentArena
}

// New creates a leaky scheme for the given number of threads. The arena is
// only consulted to weigh retired segment handles; nothing is ever freed.
func New(arena mem.Arena, threads int) *Scheme {
	s := &Scheme{gs: make([]*guard, threads), sa: mem.AsSegmentArena(arena)}
	for i := range s.gs {
		s.gs[i] = &guard{s: s, tid: i}
	}
	return s
}

// Name implements smr.Scheme.
func (s *Scheme) Name() string { return "none" }

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

// GarbageBound implements smr.Scheme: leaky never frees, so garbage is
// unbounded by construction (the memory-usage worst case in every figure).
func (s *Scheme) GarbageBound() int { return smr.Unbounded }

// ReclaimBurst implements smr.Scheme: leaky never frees, so there is no
// burst to size caches for.
func (s *Scheme) ReclaimBurst() int { return 0 }

// AttachRegistry implements smr.Member: leaky holds no per-thread
// reclamation state, so membership churn needs no hooks — retired records
// are dropped on the floor whether or not the retiring thread stays.
func (s *Scheme) AttachRegistry(*smr.Registry) {}

// Drain implements smr.Drainer as a no-op: there is nothing to reclaim.
func (s *Scheme) Drain(int) {}

type guard struct {
	s   *Scheme
	tid int
	ctr smr.Counters
}

func (g *guard) Tid() int              { return g.tid }
func (g *guard) BeginOp()              {}
func (g *guard) EndOp()                {}
func (g *guard) BeginRead()            {}
func (g *guard) Reserve(int, mem.Ptr)  {}
func (g *guard) EndRead()              {}
func (g *guard) Protect(int, mem.Ptr)  {}
func (g *guard) NeedsValidation() bool { return false }
func (g *guard) OnAlloc(mem.Ptr)       {}
func (g *guard) Retire(mem.Ptr)        { g.ctr.Drop(1, false) }

func (g *guard) RetireBatch(ps []mem.Ptr) {
	if len(ps) > 0 {
		g.ctr.Drop(len(ps), false)
	}
}

// RetireSegment implements smr.Guard: count the member records the handle
// stands for, then drop it on the floor like every other retire.
func (g *guard) RetireSegment(p mem.Ptr) {
	if w := mem.SegWeight(g.s.sa, p); w > 1 {
		g.ctr.Drop(w, true)
	} else {
		g.Retire(p)
	}
}

func (g *guard) OnStale(p mem.Ptr) {
	panic("leaky: use-after-free detected (impossible: leaky never frees): " + p.String())
}
