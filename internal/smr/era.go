package smr

import "nbr/internal/mem"

// EraRetire is the retire side the two interval schemes (he, ibr) share: a
// per-guard event clock that advances the scheme's global era every EraFreq
// allocations plus retirements, the birth stamp at allocation, the retire
// stamp under the fill cut (RetireBatch) and the carve cut (RetireSegment),
// and the threshold-triggered sweep. A scheme embeds it in its guard and
// keeps what is its own: its announcements, its sweep predicate and its
// GarbageBound.
type EraRetire struct {
	Bag Bag
	Ctr Counters

	era       *Pad64
	arena     mem.Arena
	tid       int
	threshold int
	eraFreq   int
	events    int // allocations + retirements since the last era advance
	sweep     func()
}

// InitEra binds the guard's retire side to its scheme's era clock, arena and
// segment state. sweep runs whenever the bag reaches threshold.
func (r *EraRetire) InitEra(era *Pad64, arena mem.Arena, seg *SegState, tid, threshold, eraFreq int, sweep func()) {
	r.era, r.arena, r.tid = era, arena, tid
	r.threshold, r.eraFreq, r.sweep = threshold, eraFreq, sweep
	r.Bag.Init(seg, &r.Ctr, 0, false)
}

// OnAlloc stamps the record's birth era and ticks the era clock.
func (r *EraRetire) OnAlloc(p mem.Ptr) {
	r.arena.Hdr(p).SetBirth(r.era.Load())
	r.tickN(1)
}

// Retire retires one record as a batch of one.
func (r *EraRetire) Retire(p mem.Ptr) { r.RetireBatch([]mem.Ptr{p}) }

// RetireBatch implements Guard under the fill cut: one era load stamps each
// chunk (read after every record in the batch was unlinked, so no stamp is
// older than a per-record Retire would have written), the event clock ticks
// once per chunk, and the sweep triggers at exactly the bag weights a
// per-record Retire loop would hit.
func (r *EraRetire) RetireBatch(ps []mem.Ptr) {
	for len(ps) > 0 {
		take := r.Bag.Fill(r.threshold, len(ps))
		e := r.era.Load()
		for _, p := range ps[:take] {
			r.arena.Hdr(p.Unmarked()).SetRetire(e)
		}
		r.Bag.Append(ps[:take], 0)
		r.retired(take)
		ps = ps[take:]
	}
}

// RetireSegment implements Guard under the carve cut: one birth/retire stamp
// covers each piece's members, and every piece inherits the run's birth era
// (it stands for members allocated then), so the sweep's lifetime check pins
// or frees a piece whole.
func (r *EraRetire) RetireSegment(p mem.Ptr) {
	if r.Bag.Segment(p) == 0 {
		r.Retire(p)
		return
	}
	birth := r.arena.Hdr(p.Unmarked()).Birth()
	r.Bag.Carve(r.tid, r.threshold, p, func(piece mem.Ptr) {
		hdr := r.arena.Hdr(piece)
		hdr.SetBirth(birth)
		hdr.SetRetire(r.era.Load())
	}, r.retired)
}

// retired ticks the event clock for w bagged records and sweeps once the bag
// reaches the threshold.
func (r *EraRetire) retired(w int) {
	r.tickN(w)
	if r.Bag.Weight() >= r.threshold {
		r.sweep()
	}
}

// tickN advances the event clock by n, advancing the era exactly as n
// single-event ticks would.
func (r *EraRetire) tickN(n int) {
	r.events += n
	for r.events >= r.eraFreq {
		r.events -= r.eraFreq
		r.era.Add(1)
		r.Ctr.Advanced()
	}
}
