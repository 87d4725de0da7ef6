package smr

import (
	"sync/atomic"

	"nbr/internal/mem"
)

// SegState is the scheme-level segment bookkeeping shared by every Guard
// implementation: the arena's segment interface (resolved once at
// construction) and the largest segment weight any guard has retired,
// raised monotonically. The weight gates everything — until the first
// RetireSegment lands, Active() returns nil and the sweeps, watermark
// checks and GarbageBound formulas of a scheme collapse to their exact
// pre-segment forms at zero extra cost.
type SegState struct {
	sa   mem.SegmentArena
	maxW atomic.Int64
}

// Init resolves the arena's segment interface. A nil result is permanent:
// no segment handle can ever reach a scheme bound to that arena.
func (s *SegState) Init(a mem.Arena) { s.sa = mem.AsSegmentArena(a) }

// Arena returns the segment interface, nil when unsupported.
func (s *SegState) Arena() mem.SegmentArena { return s.sa }

// Active returns the segment interface once any segment was retired, else
// nil — the value sweeps pass to SweepBagSeg so bags that cannot contain a
// segment skip the per-entry directory probes entirely. A retired segment
// may be adopted by any guard of the scheme (orphan rehoming), so the gate
// is scheme-level, set by Note before the handle enters a bag.
func (s *SegState) Active() mem.SegmentArena {
	if s.maxW.Load() == 0 {
		return nil
	}
	return s.sa
}

// Note records a retired segment's weight, monotonically raising the
// maximum. Callers invoke it before bagging the handle so a concurrent
// GarbageBound reader can never see segment garbage under a pre-segment
// bound.
func (s *SegState) Note(w int) {
	for {
		cur := s.maxW.Load()
		if int64(w) <= cur || s.maxW.CompareAndSwap(cur, int64(w)) {
			return
		}
	}
}

// MaxWeight returns the largest record weight one bag entry can carry: the
// largest segment weight retired so far, or 1 before the first segment.
// Monotone non-decreasing, so GarbageBound formulas scaled by it collapse to
// their pre-segment forms exactly and keep the bound's monotonicity
// contract.
func (s *SegState) MaxWeight() int { return max(int(s.maxW.Load()), 1) }

// Weigh returns the garbage weight of a bag entry: SegWeight gated on the
// scheme ever having seen a segment.
func (s *SegState) Weigh(p mem.Ptr) int {
	if s.maxW.Load() == 0 {
		return 1
	}
	return mem.SegWeight(s.sa, p)
}

// WeighAll sums Weigh over ps (1 each on the ungated fast path).
func (s *SegState) WeighAll(ps []mem.Ptr) int {
	if s.maxW.Load() == 0 {
		return len(ps)
	}
	w := 0
	for _, p := range ps {
		w += mem.SegWeight(s.sa, p)
	}
	return w
}
