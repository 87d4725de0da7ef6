// Package debra implements Brown's DEBRA (distributed epoch-based
// reclamation), the fastest EBR variant in the paper's comparison and its
// main baseline. The distinguishing features over plain EBR:
//
//   - three per-thread limbo bags rotated on epoch change, so freeing needs
//     no per-record epoch tags;
//   - an amortized epoch advance: each operation start checks exactly one
//     peer, so the scan cost of a grace period is spread over ~n operations;
//   - a quiescent bit in the announcement word so idle threads never block
//     the epoch.
//
// DEBRA does not bound garbage: a stalled thread pins the epoch and every
// thread's bags grow until it recovers, at which point all threads free huge
// bags at once — the "reclamation burst" that contends on the allocator's
// shared free list (the effect the paper blames for DEBRA's fall-off at high
// thread counts).
package debra

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Scheme is a DEBRA instance.
type Scheme struct {
	arena    mem.Arena
	epoch    smr.Pad64
	announce []smr.Pad64 // epoch<<1 | active bit
	gs       []*guard
	smr.Membership
	seg smr.SegState
}

// New creates a DEBRA scheme for the given arena and thread count.
func New(arena mem.Arena, threads int) *Scheme {
	s := &Scheme{arena: arena, announce: make([]smr.Pad64, threads)}
	s.seg.Init(arena)
	s.InitFixed(threads)
	s.epoch.Store(2)
	for i := range s.announce {
		s.announce[i].Store(2 << 1) // epoch 2, quiescent
	}
	s.gs = make([]*guard, threads)
	for i := range s.gs {
		g := &guard{s: s, tid: i, localE: 2}
		for j := range g.bags {
			g.bags[j].Init(&s.seg, &g.ctr, 0, false)
		}
		g.orphans.Init(&s.seg, &g.ctr, 0, false)
		s.gs[i] = g
	}
	return s
}

// Name implements smr.Scheme.
func (s *Scheme) Name() string { return "debra" }

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

// GarbageBound implements smr.Scheme: DEBRA does not bound garbage — a
// stalled thread pins the epoch and every bag grows until it recovers (the
// property-P2 failure E2 demonstrates).
func (s *Scheme) GarbageBound() int { return smr.Unbounded }

// ReclaimBurst implements smr.Scheme: DEBRA's rotation bursts have no
// declared size (bags grow with the grace period), so the allocator keeps
// its default cache sizing.
func (s *Scheme) ReclaimBurst() int { return 0 }

// AttachRegistry implements smr.Member: the amortized epoch scan treats
// inactive slots as quiescent — a departed thread must never pin the epoch
// — and the lease hooks keep announcements and limbo bags coherent across
// slot reuse. Must run before guards are used.
func (s *Scheme) AttachRegistry(r *smr.Registry) {
	s.Join(r, len(s.gs), "debra", s.attachThread)
}

// attachThread readies slot tid for a new leaseholder: adopt the current
// epoch quiescently so the predecessor's announcement cannot pin the epoch
// or trip the next BeginOp's rotation logic.
func (s *Scheme) attachThread(tid int) {
	g := s.gs[tid]
	e := s.epoch.Load()
	g.localE = e
	g.scanAt = 0
	s.announce[tid].Store(e << 1) // current epoch, quiescent
}

// ReclaimAll implements smr.Quiescer: rotate once if the epoch moved,
// freeing any bags past their grace periods. Part of the shared recovery
// path; runs after the slot left the active mask.
func (s *Scheme) ReclaimAll(tid int) {
	g := s.gs[tid]
	if e := s.epoch.Load(); e != g.localE {
		g.rotate(e)
	}
}

// OrphanSurvivors implements smr.Quiescer: orphan everything still in limbo
// — the adopter files the records under its own current epoch, which is at
// least as late as DEBRA would have used, so the two-epoch safety margin is
// preserved.
func (s *Scheme) OrphanSurvivors(tid int) {
	g := s.gs[tid]
	for i := range g.bags {
		g.bags[i].Orphan(s.Reg)
	}
}

// ResetSlot implements smr.Quiescer: announce tid quiescent at its last
// local epoch so a vacant slot cannot pin the epoch.
func (s *Scheme) ResetSlot(tid int) {
	s.announce[tid].Store(s.gs[tid].localE << 1)
}

// ForceRound implements smr.RoundForcer: one bracketed pass over the active
// threads' epoch announcements. DEBRA's organic reclamation (rotation) is
// not a bracketed scan at all — its grace-period check is amortized one peer
// per operation — so under DEBRA the registry's round clock advances only
// through forced rounds; the collection is the full epoch check a rotation's
// worth of BeginOps performs.
func (s *Scheme) ForceRound() bool {
	return s.Membership.ForceRound(func() {
		e := s.epoch.Load()
		s.ActiveMask.Range(func(i int) {
			v := s.announce[i].Load()
			_ = v
			_ = e
		})
	})
}

// Drain implements smr.Drainer: adopt all orphans into the current bag,
// then attempt one epoch advance and rotation on behalf of tid. At
// quiescence three consecutive calls walk the grace periods forward and
// empty every bag.
func (s *Scheme) Drain(tid int) {
	g := s.gs[tid]
	g.adopt()
	e := s.epoch.Load()
	stuck := false
	s.ActiveMask.Range(func(peer int) {
		if stuck || peer == tid {
			return
		}
		v := s.announce[peer].Load()
		if v&1 != 0 && v>>1 < e {
			stuck = true
		}
	})
	if !stuck && s.epoch.CompareAndSwap(e, e+1) {
		g.ctr.Advanced()
		e++
	}
	if e != g.localE {
		g.rotate(e)
		s.announce[tid].Store(e << 1)
	}
}

type guard struct {
	s       *Scheme
	tid     int
	localE  uint64
	bags    [3]smr.Bag // indexed by epoch mod 3
	orphans smr.Bag    // adoption landing bag, empty between calls
	ctr     smr.Counters
	scanAt  int // next peer to check in the amortized scan
}

func (g *guard) Tid() int { return g.tid }

// BeginOp is DEBRA's leaveQstate: adopt the current epoch (rotating and
// freeing limbo bags if it moved), announce it with the active bit, and
// advance the amortized one-peer-per-operation epoch scan.
func (g *guard) BeginOp() {
	e := g.s.epoch.Load()
	if e != g.localE {
		g.rotate(e)
	}
	g.s.announce[g.tid].Store(e<<1 | 1)

	peer := g.scanAt
	v := g.s.announce[peer].Load()
	// A peer passes the check when quiescent, caught up to the current
	// epoch, or simply not a member — a departed thread must never pin the
	// epoch (the membership half of dynamic DEBRA).
	if v&1 == 0 || v>>1 >= e || !g.s.ActiveMask.Active(peer) {
		g.scanAt++
		if g.scanAt == len(g.s.announce) {
			g.scanAt = 0
			if g.s.epoch.CompareAndSwap(e, e+1) {
				g.ctr.Advanced()
			}
		}
	}
}

// EndOp is enterQstate: clear the active bit, keeping the epoch bits.
func (g *guard) EndOp() {
	g.s.announce[g.tid].Store(g.localE << 1)
}

func (g *guard) BeginRead()            {}
func (g *guard) Reserve(int, mem.Ptr)  {}
func (g *guard) EndRead()              {}
func (g *guard) Protect(int, mem.Ptr)  {}
func (g *guard) NeedsValidation() bool { return false }
func (g *guard) OnAlloc(mem.Ptr)       {}

func (g *guard) OnStale(p mem.Ptr) {
	panic("debra: use-after-free detected: " + p.String())
}

func (g *guard) Retire(p mem.Ptr) { g.RetireBatch([]mem.Ptr{p}) }

// RetireBatch implements smr.Guard: one epoch check (and at most one
// rotation) files the whole batch into the bag of the epoch current *now*,
// not at operation start. The global epoch may have advanced once
// mid-operation, and a record unlinked under the newer epoch can be held by
// readers that adopted it, so filing it under the stale epoch would shrink
// the two-epoch safety margin to one. Rotation here must not touch the
// thread's announcement — raising it mid-operation would unpin records this
// operation still holds. Freeing happens wholesale at rotation, which is
// what makes DEBRA fast and its reclamation bursty.
func (g *guard) RetireBatch(ps []mem.Ptr) {
	if len(ps) == 0 {
		return
	}
	g.current().Append(ps, 0)
}

// RetireSegment implements smr.Guard: the handle is filed whole; the
// rotation burst frees its members through the arena's segment fan-out.
func (g *guard) RetireSegment(p mem.Ptr) {
	w := g.bags[0].Segment(p) // any bag: all three share seg state and counters
	if w == 0 {
		g.Retire(p)
		return
	}
	g.current().AddSegment(p, w, 0)
}

// current returns the bag of the epoch current now, rotating if the epoch
// moved and adopting any orphans into it.
func (g *guard) current() *smr.Bag {
	if e := g.s.epoch.Load(); e != g.localE {
		g.rotate(e)
	}
	g.adopt()
	return &g.bags[g.localE%3]
}

// rotate adopts epoch e. Records in the bag for epoch e-2 (and older, if the
// epoch jumped by ≥2) are past two grace periods and freed in one burst.
func (g *guard) rotate(e uint64) {
	if e >= g.localE+2 {
		for i := range g.bags {
			g.bags[i].FreeAll(g.s.arena, g.tid)
		}
	} else {
		g.bags[(e+1)%3].FreeAll(g.s.arena, g.tid) // (e+1)%3 == (e-2)%3
	}
	g.localE = e
	g.scanAt = 0 // scan progress was for the previous epoch
}

// adopt pulls every orphaned record into the *current* epoch's bag. The
// records land in the orphans bag first and the epoch is read (rotating if
// it moved) only after that: an orphan was retired no later than its
// adoption, so filing under an epoch e read afterwards guarantees it is not
// freed before rotate(e+2) — two full grace periods after its retirement.
// Reading the epoch first would let a peer retire under a newer epoch,
// release its slot and orphan the record in between, and the record would
// be freed a grace period early. Adopted records were already counted as
// retired.
func (g *guard) adopt() {
	if g.s.HasOrphans() {
		g.orphans.Adopt(&g.s.Membership, 0, nil)
		if e := g.s.epoch.Load(); e != g.localE {
			g.rotate(e)
		}
		g.bags[g.localE%3].Merge(&g.orphans)
	}
}
