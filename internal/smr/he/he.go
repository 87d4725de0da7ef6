// Package he implements hazard eras (Ramalhete & Correia, SPAA'17), included
// as an extension beyond the paper's benchmark set. It keeps hazard
// pointers' per-slot announcements but announces the current *era* instead
// of a record address, combining HP-style bounded garbage with cheaper
// protection upgrades: re-protecting a record whose era has not moved is
// free. Records carry birth/retire eras in the allocator header; a retired
// record is freed once no announced era falls inside its lifetime.
package he

import (
	"sync"

	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Config tunes the scheme.
type Config struct {
	// Slots is the number of era slots per thread. Default 8.
	Slots int
	// EraFreq advances the era every EraFreq allocations+retirements per
	// thread. Default 128.
	EraFreq int
	// Threshold is the per-thread bag size that triggers a sweep. Default
	// max(64, 2·N·Slots).
	Threshold int
}

func (c Config) withDefaults(threads int) Config {
	if c.Slots <= 0 {
		c.Slots = 8
	}
	if c.EraFreq <= 0 {
		c.EraFreq = 128
	}
	if c.Threshold <= 0 {
		c.Threshold = 2 * threads * c.Slots
		if c.Threshold < 64 {
			c.Threshold = 64
		}
	}
	return c
}

// Scheme is a hazard-eras instance.
type Scheme struct {
	arena mem.Arena
	cfg   Config
	era   smr.Pad64
	slots []smr.Pad64 // N*K era announcements; 0 = none
	// orphanPeak is the high-water mark of the registry orphan list while
	// this scheme fed it: orphaned records are era-pinned survivors, so they
	// belong to the pinned-set term of GarbageBound.
	orphanPeak smr.Watermark
	gs         []*guard
	smr.Membership

	// seg's largest retired segment weight scales the declared bound.
	seg smr.SegState

	// forceEras is the ForceRound collection scratch, serialized by forceMu.
	forceMu   sync.Mutex
	forceEras []uint64
}

// New creates a hazard-eras scheme for the given arena and thread count.
func New(arena mem.Arena, threads int, cfg Config) *Scheme {
	s := &Scheme{arena: arena, cfg: cfg.withDefaults(threads)}
	s.seg.Init(arena)
	s.InitFixed(threads)
	s.era.Store(1)
	s.slots = make([]smr.Pad64, threads*s.cfg.Slots)
	s.gs = make([]*guard, threads)
	for i := range s.gs {
		g := &guard{s: s, tid: i, hiSlot: -1}
		g.InitEra(&s.era, arena, &s.seg, i, s.cfg.Threshold, s.cfg.EraFreq, g.sweep)
		s.gs[i] = g
	}
	return s
}

// Name implements smr.Scheme.
func (s *Scheme) Name() string { return "he" }

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// Stats implements smr.Scheme.
func (s *Scheme) Stats() smr.Stats {
	var st smr.Stats
	for _, g := range s.gs {
		g.Ctr.AddTo(&st)
	}
	return st
}

// GarbageBound implements smr.Scheme as the exact pinned-set bound. Garbage
// splits into two parts:
//
//   - buffered records: each thread's bag sweeps at the threshold, and a
//     sweep pass can transiently hold one adopted-orphan batch on top —
//     ≤ 2·Threshold+2 per thread, a static term;
//   - pinned records: sweep survivors are exactly the records whose
//     lifetime contains an announced era. That set is measured, not
//     guessed: every sweep records its survivor count, and the bound
//     carries the high-water mark (plus the orphaned-survivor peak under
//     membership churn).
//
// The old N·EraFreq-per-thread heuristic overcharged quiet runs (nothing
// pinned) and was never honest under a stalled announcement (whose pinned
// set is bounded by records alive at the stalled era, not by EraFreq); the
// measured pinned-set term is tight in the first case and adapts exactly in
// the second. Monotone by construction (watermarks only rise), as
// smr.Scheme requires.
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

// AttachRegistry implements smr.Member: adopt the registry's active mask for
// era scans and register the lease hooks. Must run before guards are used.
func (s *Scheme) AttachRegistry(r *smr.Registry) {
	s.Join(r, len(s.gs), "he", s.attachThread)
}

// attachThread clears slot tid's era announcements for a new leaseholder.
func (s *Scheme) attachThread(tid int) {
	for i := 0; i < s.cfg.Slots; i++ {
		s.slot(tid, i).Store(0)
	}
	s.gs[tid].hiSlot = -1
}

// ReclaimAll implements smr.Quiescer: adopt previously orphaned records and
// sweep everything once. Part of the shared recovery path; runs after the
// slot left the active mask.
func (s *Scheme) ReclaimAll(tid int) {
	g := s.gs[tid]
	g.Bag.Adopt(&s.Membership, 0, nil)
	if g.Bag.Len() > 0 {
		g.sweep()
	}
}

// OrphanSurvivors implements smr.Quiescer: orphan the era-pinned survivors,
// raising the measured-bound watermark the orphan list contributes to.
func (s *Scheme) OrphanSurvivors(tid int) {
	s.orphanPeak.Raise(uint64(s.gs[tid].Bag.Orphan(s.Reg)))
}

// ResetSlot implements smr.Quiescer: clear tid's era announcements.
func (s *Scheme) ResetSlot(tid int) { s.attachThread(tid) }

// ForceRound implements smr.RoundForcer: one bracketed era collection over
// the active mask — sweep's announcement snapshot without the lifetime
// checks — advancing the registry's quarantine clock on demand.
func (s *Scheme) ForceRound() bool {
	s.forceMu.Lock()
	defer s.forceMu.Unlock()
	return s.Membership.ForceRound(func() {
		s.forceEras = s.forceEras[:0]
		s.ActiveMask.Range(func(tid int) {
			for i := 0; i < s.cfg.Slots; i++ {
				if v := s.slot(tid, i).Load(); v != 0 {
					s.forceEras = append(s.forceEras, v)
				}
			}
		})
	})
}

// Drain implements smr.Drainer: adopt all orphans and sweep on behalf of tid.
func (s *Scheme) Drain(tid int) {
	g := s.gs[tid]
	g.Bag.Adopt(&s.Membership, 0, nil)
	if g.Bag.Len() > 0 {
		g.sweep()
	}
}

func (s *Scheme) slot(tid, i int) *smr.Pad64 { return &s.slots[tid*s.cfg.Slots+i] }

type guard struct {
	smr.EraRetire // birth/retire stamping, the era clock and the bag

	s      *Scheme
	tid    int
	hiSlot int
	eras   []uint64 // sweep scratch

	// pinnedPeak is the largest survivor weight any sweep of this guard
	// kept: the measured pinned-set term of GarbageBound.
	pinnedPeak smr.Watermark
}

func (g *guard) Tid() int { return g.tid }

func (g *guard) BeginOp() {}

// EndOp clears every era announcement the operation made.
func (g *guard) EndOp() {
	for i := 0; i <= g.hiSlot; i++ {
		g.s.slot(g.tid, i).Store(0)
	}
	g.hiSlot = -1
}

func (g *guard) BeginRead()           {}
func (g *guard) Reserve(int, mem.Ptr) {}
func (g *guard) EndRead()             {}

// Protect announces the current era in the slot (only when it moved — the
// hazard-eras fast path) and requires link validation like HP.
func (g *guard) Protect(slot int, _ mem.Ptr) {
	if slot >= g.s.cfg.Slots {
		panic("he: slot out of range")
	}
	if slot > g.hiSlot {
		g.hiSlot = slot
	}
	e := g.s.era.Load()
	sl := g.s.slot(g.tid, slot)
	if sl.Load() != e {
		sl.Store(e)
	}
}

func (g *guard) NeedsValidation() bool { return true }

func (g *guard) OnStale(p mem.Ptr) {
	panic("he: use-after-free detected (validation raced a free): " + p.String())
}

// sweep frees every record whose lifetime contains no announced era,
// walking only active threads' era announcements. Orphaned records are
// adopted first so departed threads' garbage rides the same sweep; the
// survivor count feeds the pinned-set term of GarbageBound.
func (g *guard) sweep() {
	g.Bag.Adopt(&g.s.Membership, g.s.cfg.Threshold, nil)
	if r := g.s.Reg; r != nil {
		r.BeginScan()
		defer r.EndScan()
	}
	g.eras = g.eras[:0]
	width := g.s.cfg.Slots
	g.s.ActiveMask.Range(func(tid int) {
		for i := 0; i < width; i++ {
			if v := g.s.slot(tid, i).Load(); v != 0 {
				g.eras = append(g.eras, v)
			}
		}
	})
	g.Bag.SweepIf(g.s.arena, g.tid, func(p mem.Ptr, _ uint64) bool {
		hdr := g.s.arena.Hdr(p)
		birth, retire := hdr.Birth(), hdr.Retire()
		for _, e := range g.eras {
			if e >= birth && e <= retire {
				return true
			}
		}
		return false
	})
	// Raised after the frees so a concurrent sampler can never read the
	// lowered garbage before the raised bound (GarbageBound is monotone, so
	// the reverse interleaving is harmless).
	g.pinnedPeak.Raise(uint64(g.Bag.Weight()))
}
