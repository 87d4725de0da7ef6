// Package hp implements Michael's hazard pointers. Before dereferencing a
// record, a thread announces its handle in one of K single-writer slots with
// a sequentially consistent store (the mfence/xchg the paper charges HP for)
// and then re-reads the link it came from to validate the record is still
// reachable (NeedsValidation). Retired records are buffered and freed by
// scanning all announcements once the buffer exceeds a threshold
// proportional to N·K, which bounds garbage at Θ(N²K) system-wide — property
// P2 at the price of per-record fencing (opposing P1, as the paper's list
// experiments show).
package hp

import (
	"sync"

	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Config tunes the scheme.
type Config struct {
	// Slots is the number of hazard-pointer slots per thread. Default 8.
	Slots int
	// Threshold is the per-thread retire-buffer size that triggers a scan;
	// it must exceed the number of records all threads can protect. Default
	// max(64, 2·N·Slots).
	Threshold int
}

func (c Config) withDefaults(threads int) Config {
	if c.Slots <= 0 {
		c.Slots = 8
	}
	if c.Threshold <= 0 {
		c.Threshold = 2 * threads * c.Slots
		if c.Threshold < 64 {
			c.Threshold = 64
		}
	}
	return c
}

// Scheme is a hazard-pointer instance.
type Scheme struct {
	arena mem.Arena
	cfg   Config
	slots []smr.Pad64 // N*K announcement slots
	gs    []*guard
	smr.Membership

	// forceScan is the ForceRound collection scratch, serialized by forceMu.
	forceMu   sync.Mutex
	forceScan smr.ScanSet

	// seg's largest retired segment weight scales the declared bound.
	seg smr.SegState
}

// New creates a hazard-pointer scheme for the given arena and thread count.
func New(arena mem.Arena, threads int, cfg Config) *Scheme {
	s := &Scheme{arena: arena, cfg: cfg.withDefaults(threads)}
	s.seg.Init(arena)
	s.InitFixed(threads)
	s.slots = make([]smr.Pad64, threads*s.cfg.Slots)
	s.forceScan = smr.NewScanSet(threads * s.cfg.Slots)
	s.gs = make([]*guard, threads)
	for i := range s.gs {
		g := &guard{s: s, tid: i, hiSlot: -1, scan: smr.NewScanSet(threads * s.cfg.Slots)}
		g.bag.Init(&s.seg, &g.ctr, s.cfg.Threshold, false)
		s.gs[i] = g
	}
	return s
}

// Name implements smr.Scheme.
func (s *Scheme) Name() string { return "hp" }

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

// GarbageBound implements smr.Scheme: each thread's retire buffer scans at
// the threshold (measured in record weight — a segment handle counts its
// whole member run) and a scan leaves at most N·K protected survivors, so
// the system-wide garbage never exceeds N·(Threshold + (N·K+1)·segW) — the
// Θ(N²K) bound property P2 charges hazard pointers for. The +1 is the one
// in-flight RetireSegment append per thread: identity-based hazards forbid
// carving an announced handle (see RetireSegment), so a whole segment of up
// to segW records can land in one append before the post-append scan fires.
// Added on top is the orphan allowance: up to N concurrently departing
// threads can each strand one protected survivor set (≤ N·K entries, each
// worth up to segW records) on the orphan list before the next scan adopts
// it. segW is 1 until the first RetireSegment lands and monotone afterwards,
// preserving the contract.
func (s *Scheme) GarbageBound() int {
	n := len(s.gs)
	segW := s.seg.MaxWeight()
	return n*(s.cfg.Threshold+(n*s.cfg.Slots+1)*segW) + n*n*s.cfg.Slots*segW
}

// ReclaimBurst implements smr.Scheme: a scan frees at most one full retire
// buffer at once.
func (s *Scheme) ReclaimBurst() int { return s.cfg.Threshold }

// AttachRegistry implements smr.Member: adopt the registry's active mask for
// hazard scans and register the lease hooks. Must run before guards are used.
func (s *Scheme) AttachRegistry(r *smr.Registry) {
	s.Join(r, len(s.gs), "hp", s.attachThread)
}

// attachThread clears slot tid's hazard announcements for a new leaseholder.
func (s *Scheme) attachThread(tid int) {
	for i := 0; i < s.cfg.Slots; i++ {
		s.slot(tid, i).Store(0)
	}
	s.gs[tid].hiSlot = -1
}

// ReclaimAll implements smr.Quiescer: adopt previously orphaned records and
// scan once over everything. Part of the shared recovery path; runs after
// the slot left the active mask.
func (s *Scheme) ReclaimAll(tid int) {
	g := s.gs[tid]
	g.bag.Adopt(&s.Membership, 0, nil)
	if g.bag.Len() > 0 {
		g.doScan()
	}
}

// OrphanSurvivors implements smr.Quiescer: orphan the protected survivors
// (≤ N·K) for the next reclaimer to adopt.
func (s *Scheme) OrphanSurvivors(tid int) { s.gs[tid].bag.Orphan(s.Reg) }

// ResetSlot implements smr.Quiescer: clear tid's hazard announcements.
func (s *Scheme) ResetSlot(tid int) { s.attachThread(tid) }

// ForceRound implements smr.RoundForcer: one bracketed hazard collection
// over the active mask — doScan's snapshot without the sweep — advancing
// the registry's quarantine clock on demand.
func (s *Scheme) ForceRound() bool {
	s.forceMu.Lock()
	defer s.forceMu.Unlock()
	return s.Membership.ForceRound(func() {
		s.forceScan.CollectRows(s.slots, s.cfg.Slots, s.ActiveMask)
	})
}

// Drain implements smr.Drainer: adopt all orphans and scan on behalf of tid.
func (s *Scheme) Drain(tid int) {
	g := s.gs[tid]
	g.bag.Adopt(&s.Membership, 0, nil)
	if g.bag.Len() > 0 {
		g.doScan()
	}
}

func (s *Scheme) slot(tid, i int) *smr.Pad64 { return &s.slots[tid*s.cfg.Slots+i] }

type guard struct {
	s      *Scheme
	tid    int
	hiSlot int
	bag    smr.Bag
	ctr    smr.Counters
	scan   smr.ScanSet // scan scratch, reused
}

func (g *guard) Tid() int { return g.tid }

func (g *guard) BeginOp() {}

// EndOp releases every hazard pointer the operation announced (Fig. 2c's
// unprotect-on-return).
func (g *guard) EndOp() {
	for i := 0; i <= g.hiSlot; i++ {
		g.s.slot(g.tid, i).Store(0)
	}
	g.hiSlot = -1
}

func (g *guard) BeginRead()           {}
func (g *guard) Reserve(int, mem.Ptr) {}
func (g *guard) EndRead()             {}

// Protect announces p in the slot. The store is sequentially consistent
// (Go's atomic store; an XCHG on x86-64), so a reclaimer scanning after
// retiring p either sees the announcement or the announcing thread's
// subsequent link validation sees the unlink — the standard HP argument.
func (g *guard) Protect(slot int, p mem.Ptr) {
	if slot >= g.s.cfg.Slots {
		panic("hp: slot out of range")
	}
	if slot > g.hiSlot {
		g.hiSlot = slot
	}
	g.s.slot(g.tid, slot).Store(uint64(p.Unmarked()))
}

func (g *guard) NeedsValidation() bool { return true }
func (g *guard) OnAlloc(mem.Ptr)       {}

func (g *guard) OnStale(p mem.Ptr) {
	panic("hp: use-after-free detected (validation raced a free): " + p.String())
}

func (g *guard) Retire(p mem.Ptr) { g.RetireBatch([]mem.Ptr{p}) }

// RetireBatch implements smr.Guard under the fill cut: one threshold check
// per threshold's worth of records, at exactly the buffer weights a
// per-record Retire loop would scan at, so a single splice can never
// stretch the buffer — and the bound — beyond Threshold plus the protected
// survivors.
func (g *guard) RetireBatch(ps []mem.Ptr) {
	if len(ps) == 0 {
		return
	}
	g.ctr.Handoff(len(ps))
	for len(ps) > 0 {
		take := g.bag.Fill(g.s.cfg.Threshold, len(ps))
		g.bag.Append(ps[:take], 0)
		ps = ps[take:]
		if g.bag.Weight() >= g.s.cfg.Threshold {
			g.doScan()
		}
	}
}

// RetireSegment implements smr.Guard: hazards name handles, so the segment
// is bagged whole (see smr.Guard.RetireSegment).
func (g *guard) RetireSegment(p mem.Ptr) {
	w := g.bag.Segment(p)
	if w == 0 {
		g.Retire(p)
		return
	}
	g.bag.AddSegment(p, w, 0)
	if g.bag.Weight() >= g.s.cfg.Threshold {
		g.doScan()
	}
}

// doScan collects every active thread's announcements into the flat sorted
// scratch and frees the unprotected remainder of the bag in one FreeBatch
// call — zero heap allocations and one free-list interaction per scan. Any
// orphaned records are adopted first, so departed threads' garbage rides the
// same sweep.
func (g *guard) doScan() {
	g.bag.Adopt(&g.s.Membership, g.s.cfg.Threshold, nil)
	if r := g.s.Reg; r != nil {
		r.BeginScan()
		defer r.EndScan()
	}
	g.scan.CollectRows(g.s.slots, g.s.cfg.Slots, g.s.ActiveMask)
	g.bag.SweepSet(&g.scan, g.s.arena, g.tid, g.bag.Len())
}
