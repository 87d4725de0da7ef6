// Package ibr implements 2GE interval-based reclamation (the "2geibr"
// variant the paper benchmarks, from Wen et al., PPoPP'18). A global era
// clock advances every few allocations/retirements; every record carries its
// birth and retire eras in the allocator header (the per-record metadata the
// paper notes these schemes require). Each thread announces a reservation
// interval [lo, hi]: lo is fixed at operation start, hi is raised to the
// current era at every record access (the 2GE upgrade, validated by a link
// re-read like hazard pointers). A retired record is freed once its lifetime
// interval [birth, retire] intersects no thread's reservation, which bounds
// garbage even under stalled threads.
package ibr

import (
	"sync"

	"nbr/internal/mem"
	"nbr/internal/smr"
)

const idleLo = ^uint64(0)

// Config tunes the scheme.
type Config struct {
	// EraFreq advances the era every EraFreq allocations+retirements per
	// thread. Default 128.
	EraFreq int
	// Threshold is the per-thread bag size that triggers a sweep. Default
	// max(64, 2·N·8).
	Threshold int
}

func (c Config) withDefaults(threads int) Config {
	if c.EraFreq <= 0 {
		c.EraFreq = 128
	}
	if c.Threshold <= 0 {
		c.Threshold = 2 * threads * 8
		if c.Threshold < 64 {
			c.Threshold = 64
		}
	}
	return c
}

// Scheme is a 2GE-IBR instance.
type Scheme struct {
	arena mem.Arena
	cfg   Config
	era   smr.Pad64
	lo    []smr.Pad64
	hi    []smr.Pad64
	// orphanPeak is the high-water mark of the registry orphan list while
	// this scheme fed it: orphaned records are interval-pinned survivors,
	// so they belong to the pinned-set term of GarbageBound.
	orphanPeak smr.Watermark
	gs         []*guard
	smr.Membership

	// seg's largest retired segment weight scales the declared bound.
	seg smr.SegState

	// forceLos/forceHis are the ForceRound collection scratch, serialized by
	// forceMu.
	forceMu  sync.Mutex
	forceLos []uint64
	forceHis []uint64
}

// New creates a 2GE-IBR scheme for the given arena and thread count.
func New(arena mem.Arena, threads int, cfg Config) *Scheme {
	s := &Scheme{arena: arena, cfg: cfg.withDefaults(threads),
		lo: make([]smr.Pad64, threads), hi: make([]smr.Pad64, threads)}
	s.seg.Init(arena)
	s.InitFixed(threads)
	s.era.Store(1)
	for i := 0; i < threads; i++ {
		s.lo[i].Store(idleLo)
	}
	s.gs = make([]*guard, threads)
	for i := range s.gs {
		g := &guard{s: s, tid: i}
		g.bag.Init(&s.seg, &g.ctr, 0, false)
		s.gs[i] = g
	}
	return s
}

// Name implements smr.Scheme.
func (s *Scheme) Name() string { return "ibr" }

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

// GarbageBound implements smr.Scheme as the exact pinned-set bound: a
// static buffered term (each bag sweeps at the threshold, plus one
// adopted-orphan batch in flight — ≤ 2·Threshold+2 per thread) plus the
// measured pinned set — sweep survivors are exactly the records whose
// lifetime intersects a reserved interval, recorded as a high-water mark
// per guard (and an orphaned-survivor peak under membership churn). See the
// he package for the full rationale; the old N·EraFreq heuristic is gone
// for the same reasons. Monotone by construction, as smr.Scheme requires.
func (s *Scheme) GarbageBound() int {
	n := len(s.gs)
	// The threshold term is measured in record weight (a segment handle
	// counts its member run), so it needs no scaling; the transient
	// adopted-orphan batch is counted in entries, each worth up to segW
	// records. segW is 1 until the first RetireSegment lands and monotone
	// afterwards, so the formula collapses to the pre-segment bound exactly
	// and keeps the monotonicity contract (pinned and orphan terms are
	// weighted watermarks).
	segW := s.seg.MaxWeight()
	bound := n * (s.cfg.Threshold + (s.cfg.Threshold+2)*segW)
	for _, g := range s.gs {
		bound += int(g.pinnedPeak.Load())
	}
	return bound + int(s.orphanPeak.Load())
}

// ReclaimBurst implements smr.Scheme: a sweep frees at most one full bag.
func (s *Scheme) ReclaimBurst() int { return s.cfg.Threshold }

// AttachRegistry implements smr.Member: adopt the registry's active mask
// for interval scans and register the lease hooks. Must run before guards
// are used.
func (s *Scheme) AttachRegistry(r *smr.Registry) {
	s.Join(r, len(s.gs), "ibr", s.attachThread)
}

// attachThread empties slot tid's reservation interval for a new
// leaseholder.
func (s *Scheme) attachThread(tid int) {
	s.lo[tid].Store(idleLo)
	s.hi[tid].Store(0)
}

// ReclaimAll implements smr.Quiescer: adopt previously orphaned records and
// sweep everything once. Part of the shared recovery path; runs after the
// slot left the active mask.
func (s *Scheme) ReclaimAll(tid int) {
	g := s.gs[tid]
	g.bag.Adopt(&s.Membership, 0, nil)
	if g.bag.Len() > 0 {
		g.sweep()
	}
}

// OrphanSurvivors implements smr.Quiescer: orphan the interval-pinned
// survivors, raising the measured-bound watermark the orphan list
// contributes to.
func (s *Scheme) OrphanSurvivors(tid int) {
	s.orphanPeak.Raise(uint64(s.gs[tid].bag.Orphan(s.Reg)))
}

// ResetSlot implements smr.Quiescer: empty tid's reservation interval.
func (s *Scheme) ResetSlot(tid int) { s.attachThread(tid) }

// ForceRound implements smr.RoundForcer: one bracketed reservation-interval
// collection over the active mask — sweep's snapshot without the lifetime
// checks — advancing the registry's quarantine clock on demand.
func (s *Scheme) ForceRound() bool {
	s.forceMu.Lock()
	defer s.forceMu.Unlock()
	return s.Membership.ForceRound(func() {
		s.forceLos, s.forceHis = s.forceLos[:0], s.forceHis[:0]
		s.ActiveMask.Range(func(tid int) {
			if lo := s.lo[tid].Load(); lo != idleLo {
				s.forceLos = append(s.forceLos, lo)
				s.forceHis = append(s.forceHis, s.hi[tid].Load())
			}
		})
	})
}

// Drain implements smr.Drainer: adopt all orphans and sweep on behalf of
// tid.
func (s *Scheme) Drain(tid int) {
	g := s.gs[tid]
	g.bag.Adopt(&s.Membership, 0, nil)
	if g.bag.Len() > 0 {
		g.sweep()
	}
}

type guard struct {
	s      *Scheme
	tid    int
	bag    smr.Bag
	ctr    smr.Counters
	events int // allocations + retirements since the last era advance
	los    []uint64
	his    []uint64 // sweep scratch, reused

	// pinnedPeak is the largest survivor weight any sweep of this guard
	// kept: the measured pinned-set term of GarbageBound.
	pinnedPeak smr.Watermark
}

func (g *guard) Tid() int { return g.tid }

// BeginOp pins the reservation interval's lower end at the current era.
func (g *guard) BeginOp() {
	e := g.s.era.Load()
	g.s.lo[g.tid].Store(e)
	g.s.hi[g.tid].Store(e)
}

// EndOp empties the reservation interval.
func (g *guard) EndOp() {
	g.s.lo[g.tid].Store(idleLo)
	g.s.hi[g.tid].Store(0)
}

func (g *guard) BeginRead()           {}
func (g *guard) Reserve(int, mem.Ptr) {}
func (g *guard) EndRead()             {}

// Protect raises the interval's upper end to the current era; the caller
// then re-reads the link (NeedsValidation) so that any record it goes on to
// access has a lifetime intersecting [lo, hi].
func (g *guard) Protect(_ int, _ mem.Ptr) {
	e := g.s.era.Load()
	if g.s.hi[g.tid].Load() < e {
		g.s.hi[g.tid].Store(e)
	}
}

func (g *guard) NeedsValidation() bool { return true }

// OnAlloc stamps the record's birth era and ticks the era clock.
func (g *guard) OnAlloc(p mem.Ptr) {
	g.s.arena.Hdr(p).SetBirth(g.s.era.Load())
	g.tick()
}

func (g *guard) OnStale(p mem.Ptr) {
	panic("ibr: use-after-free detected (validation raced a free): " + p.String())
}

func (g *guard) Retire(p mem.Ptr) { g.RetireBatch([]mem.Ptr{p}) }

// RetireBatch implements smr.Guard under the fill cut: one era load stamps
// each chunk (read after every record in the batch was unlinked, so no stamp
// is older than a per-record Retire would have written), the event clock
// ticks once per chunk, and the sweep triggers at exactly the bag weights a
// per-record Retire loop would hit.
func (g *guard) RetireBatch(ps []mem.Ptr) {
	if len(ps) == 0 {
		return
	}
	g.ctr.Handoff(len(ps))
	for len(ps) > 0 {
		take := g.bag.Fill(g.s.cfg.Threshold, len(ps))
		e := g.s.era.Load()
		for _, p := range ps[:take] {
			g.s.arena.Hdr(p.Unmarked()).SetRetire(e)
		}
		g.bag.Append(ps[:take], 0)
		g.retired(take)
		ps = ps[take:]
	}
}

// RetireSegment implements smr.Guard under the carve cut: one birth/retire
// stamp covers each piece's members, and every piece inherits the run's
// birth era (it stands for members allocated then), so the sweep's
// lifetime check pins or frees a piece whole.
func (g *guard) RetireSegment(p mem.Ptr) {
	if g.bag.Segment(p) == 0 {
		g.Retire(p)
		return
	}
	birth := g.s.arena.Hdr(p.Unmarked()).Birth()
	g.bag.Carve(g.tid, g.s.cfg.Threshold, p, func(piece mem.Ptr) {
		hdr := g.s.arena.Hdr(piece)
		hdr.SetBirth(birth)
		hdr.SetRetire(g.s.era.Load())
	}, g.retired)
}

// retired ticks the event clock for w bagged records and sweeps once the
// bag reaches the threshold.
func (g *guard) retired(w int) {
	g.tickN(w)
	if g.bag.Weight() >= g.s.cfg.Threshold {
		g.sweep()
	}
}

func (g *guard) tick() { g.tickN(1) }

// tickN advances the event clock by n, advancing the era exactly as n
// single-event ticks would.
func (g *guard) tickN(n int) {
	g.events += n
	for g.events >= g.s.cfg.EraFreq {
		g.events -= g.s.cfg.EraFreq
		g.s.era.Add(1)
		g.ctr.Advanced()
	}
}

// sweep frees every record whose [birth, retire] interval no active thread
// reserves. Orphaned records are adopted first so departed threads' garbage
// rides the same sweep; the survivor count feeds the pinned-set term of
// GarbageBound.
func (g *guard) sweep() {
	g.bag.Adopt(&g.s.Membership, g.s.cfg.Threshold, nil)
	if r := g.s.Reg; r != nil {
		r.BeginScan()
		defer r.EndScan()
	}
	if g.los == nil {
		g.los = make([]uint64, 0, len(g.s.lo))
		g.his = make([]uint64, 0, len(g.s.hi))
	}
	los, his := g.los[:0], g.his[:0]
	g.s.ActiveMask.Range(func(tid int) {
		if lo := g.s.lo[tid].Load(); lo != idleLo {
			los = append(los, lo)
			his = append(his, g.s.hi[tid].Load())
		}
	})
	g.los, g.his = los, his
	g.bag.SweepIf(g.s.arena, g.tid, func(p mem.Ptr, _ uint64) bool {
		hdr := g.s.arena.Hdr(p)
		birth, retire := hdr.Birth(), hdr.Retire()
		for i := range los {
			if retire >= los[i] && birth <= his[i] {
				return true
			}
		}
		return false
	})
	// Raised after the frees so a concurrent sampler can never read the
	// lowered garbage before the raised bound (GarbageBound is monotone, so
	// the reverse interleaving is harmless).
	g.pinnedPeak.Raise(uint64(g.bag.Weight()))
}
