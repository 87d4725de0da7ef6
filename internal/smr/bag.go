package smr

import "nbr/internal/mem"

// This file is the limbo-bag bookkeeping every scheme shares: bag appends
// and their record weight, the retire counters, orphan adoption and
// hand-off, the sweeps, and the three ways a handoff may be cut between
// sweep checks (DESIGN.md §7):
//
//   - fill: RetireBatch chunks that fill the bag exactly to its threshold
//     (Bag.Fill) — hp, he, ibr;
//   - carve: an oversized segment split into threshold-weight pieces
//     (Bag.Carve) — era schemes only, see Guard.RetireSegment;
//   - whole: the handoff lands in one append (Bag.Append, Bag.AddSegment) —
//     every segment under the identity and epoch schemes, and every batch
//     under the epoch schemes, whose garbage is unbounded anyway. NBR cuts
//     batches at its own watermarks.
//
// A scheme keeps only what is its own: its tag source (an epoch load, an
// era stamp, DEBRA's rotating bags, NBR's watermarks), its safe-to-free
// predicate and its GarbageBound.

// Counters is one guard's retire-side counter set: written by the owning
// thread, summed concurrently by Scheme.Stats through AddTo.
type Counters struct {
	retired, freed, scans, advances Counter
	segments                        Counter // segment handles bagged (one per carved piece)
	segRecords                      Counter // member records those handles stood for
	batches                         BatchHist
}

// AddTo folds the counters into st.
func (c *Counters) AddTo(st *Stats) {
	st.Retired += c.retired.Load()
	st.Freed += c.freed.Load()
	st.Scans += c.scans.Load()
	st.Advances += c.advances.Load()
	st.Segments += c.segments.Load()
	st.SegRecords += c.segRecords.Load()
	c.batches.AddTo(&st.BatchHist)
}

// Handoff records one RetireBatch handoff of n records in the batch
// histogram (Bag.Add and Bag.Segment record Retire's and RetireSegment's).
func (c *Counters) Handoff(n int) { c.batches.Record(n) }

// Advanced counts one epoch or era advance.
func (c *Counters) Advanced() { c.advances.Inc() }

// Drop counts one handoff of n records that are retired but never bagged
// (the leaky baseline); seg marks a segment handle standing for all n.
func (c *Counters) Drop(n int, seg bool) {
	c.retired.Add(uint64(n))
	c.batches.Record(n)
	if seg {
		c.segments.Inc()
		c.segRecords.Add(uint64(n))
	}
}

// Bag is one guard's weighted limbo bag: its retired-but-unfreed entries,
// stored unmarked, and their record weight — len(entries) until a segment
// handle lands, after which each handle counts its whole member run, so
// every threshold and watermark a scheme compares against it counts real
// garbage. A tagged bag (qsbr, rcu) keeps one tag per entry. A Bag is owned
// by one guard; several bags may share one Counters (DEBRA's three).
type Bag struct {
	ents []mem.Ptr
	tags []uint64 // per-entry tags; non-nil only in a tagged bag
	w    int
	seg  *SegState
	c    *Counters
	free []mem.Ptr // SweepSet's FreeBatch scratch, reused
}

// Init binds the bag to its scheme's segment state and its guard's
// counters. scratch pre-sizes the sweep batch (the scheme's reclamation
// burst) so steady-state sweeps allocate nothing; tagged gives every entry
// a tag.
func (b *Bag) Init(seg *SegState, c *Counters, scratch int, tagged bool) {
	b.seg, b.c = seg, c
	b.free = make([]mem.Ptr, 0, scratch)
	if tagged {
		b.tags = []uint64{}
	}
}

// Len returns the number of entries.
func (b *Bag) Len() int { return len(b.ents) }

// Weight returns the record weight of the entries.
func (b *Bag) Weight() int { return b.w }

// Add bags one record as a Retire handoff of size 1. Untagged bags only;
// it is the NBR fast path, so it stays free of indirect calls.
func (b *Bag) Add(p mem.Ptr) {
	b.ents = append(b.ents, p.Unmarked())
	b.w++
	b.c.retired.Inc()
	b.c.batches.Record(1)
}

// Append bags ps under tag: one chunk of a handoff whose size the caller
// recorded with Counters.Handoff. Records count as retired per chunk, so a
// concurrent Stats sampler never sees a whole split splice as garbage
// before the split could reclaim between its chunks.
func (b *Bag) Append(ps []mem.Ptr, tag uint64) {
	ents := b.ents
	for _, p := range ps {
		ents = append(ents, p.Unmarked())
	}
	b.ents = ents
	b.tag(len(ps), tag)
	b.w += len(ps)
	b.c.retired.Add(uint64(len(ps)))
}

func (b *Bag) tag(n int, tag uint64) {
	if b.tags != nil {
		for range n {
			b.tags = append(b.tags, tag)
		}
	}
}

// Fill is the fill cut: the size of the next RetireBatch chunk of a
// threshold-triggered scheme (hp, he, ibr) — the records that fill the bag
// exactly to threshold, so the post-append sweep check fires at the bag
// weights a per-record Retire loop would hit, degrading to single records
// when the bag is already at or past it (the last sweep freed nothing),
// exactly as the loop would.
func (b *Bag) Fill(threshold, avail int) int {
	take := threshold - b.w
	if take < 1 {
		take = 1
	}
	if take > avail {
		take = avail
	}
	return take
}

// Segment is RetireSegment's prologue: it returns the member weight of
// segment handle p and records the handoff, or returns 0 when p is not a
// live segment, in which case the caller degrades to Retire.
func (b *Bag) Segment(p mem.Ptr) int {
	w := mem.SegWeight(b.seg.Arena(), p)
	if w <= 1 {
		return 0
	}
	b.c.batches.Record(w)
	return w
}

// AddSegment bags segment handle p whole, at weight w (the whole cut).
func (b *Bag) AddSegment(p mem.Ptr, w int, tag uint64) {
	// Note before bagging: a concurrent GarbageBound reader must never see
	// segment garbage under a pre-segment (or lighter) bound.
	b.seg.Note(w)
	b.ents = append(b.ents, p.Unmarked())
	b.tag(1, tag)
	b.w += w
	b.c.retired.Add(uint64(w))
	b.c.segments.Inc()
	b.c.segRecords.Add(uint64(w))
}

// Carve bags segment p under the carve cut: whole threshold-weight pieces
// carved off the run's front, each bagged as its own handle. stamp runs on
// each piece before it is bagged and after(w) once it is — the scheme's
// sweep check. Era schemes only (see Guard.RetireSegment).
//
// The fill cut is wrong here: an era sweep can leave the bag pinned at the
// threshold by survivors, and fill would then degrade to weight-1 carves —
// per-record retirement paying a directory split per record. Whole pieces
// keep the carve count at ceil(weight/threshold) and cap every piece's
// weight, and with it the segW term of GarbageBound, at the threshold.
func (b *Bag) Carve(tid, threshold int, p mem.Ptr, stamp func(piece mem.Ptr), after func(w int)) {
	sa := b.seg.Arena()
	threshold = max(threshold, 1)
	for p = p.Unmarked(); p != mem.Null; {
		piece, w := p, sa.SegmentWeight(p)
		if threshold < w {
			piece, p = sa.CarveSegment(tid, p, threshold)
			if p != mem.Null { // else the carve covered the whole run after all
				w = threshold
			}
		} else {
			p = mem.Null
		}
		stamp(piece)
		b.AddSegment(piece, w, 0)
		after(w)
	}
}

// Adopt pulls up to max (all when max <= 0) orphaned records into the bag.
// Their original thread counted them as retired; only their weight is added
// here. A tagged bag tags them with tagFrom (nil otherwise), loaded after
// the adoption: an orphan may have been retired under a tag newer than any
// value read before it reached the orphan list.
func (b *Bag) Adopt(m *Membership, max int, tagFrom *Pad64) {
	if !m.HasOrphans() {
		return
	}
	n := len(b.ents)
	b.ents = m.Reg.AdoptOrphans(b.ents, max)
	b.w += b.seg.WeighAll(b.ents[n:])
	if b.tags != nil {
		b.tag(len(b.ents)-n, tagFrom.Load())
	}
}

// Merge moves every entry of src into b, uncounted: the entries were
// counted when first retired. Untagged bags only (DEBRA adopts into a
// landing bag and files the orphans under an epoch read afterwards).
func (b *Bag) Merge(src *Bag) {
	b.ents = append(b.ents, src.ents...)
	b.w += src.w
	src.ents, src.w = src.ents[:0], 0
}

// Orphan hands every entry to r's orphan list for the next reclaimer and
// empties the bag. It returns 0 when the bag was empty, else the orphan
// list's weight ceiling — its entry count times the largest segment weight
// — which he and ibr carry in their bounds. The peak is taken at every add,
// and between adds the list only shrinks, so that watermark stays sound.
func (b *Bag) Orphan(r *Registry) int {
	if len(b.ents) == 0 {
		return 0
	}
	r.AddOrphans(b.ents)
	b.ents, b.w = b.ents[:0], 0
	if b.tags != nil {
		b.tags = b.tags[:0]
	}
	return r.OrphanCount() * b.seg.MaxWeight()
}

// SweepSet is the identity sweep (hp hazards, NBR reservations): one scan
// that frees every entry of the first upto absent from set in a single
// FreeBatch and compacts the survivors. Untagged bags only.
func (b *Bag) SweepSet(set *ScanSet, arena mem.Arena, tid, upto int) {
	b.c.scans.Inc()
	var freedW int
	b.ents, b.free, freedW, b.w = set.SweepBagSeg(arena, b.seg.Active(), tid, b.ents, upto, b.free)
	b.c.freed.Add(uint64(freedW))
}

// SweepIf is the predicate sweep (qsbr, rcu, he, ibr): one scan that frees
// every entry keep rejects and compacts the survivors. keep sees the
// entry's tag (0 in an untagged bag).
func (b *Bag) SweepIf(arena mem.Arena, tid int, keep func(p mem.Ptr, tag uint64) bool) {
	b.c.scans.Inc()
	b.sweep(arena, tid, keep)
}

// FreeAll frees every entry (a DEBRA bag past its grace periods). It is
// not counted as a scan.
func (b *Bag) FreeAll(arena mem.Arena, tid int) { b.sweep(arena, tid, nil) }

func (b *Bag) sweep(arena mem.Arena, tid int, keep func(mem.Ptr, uint64) bool) {
	n, keptW, freedW := 0, 0, 0
	for i, p := range b.ents {
		var tag uint64
		if b.tags != nil {
			tag = b.tags[i]
		}
		// Weigh before a potential Free: freeing a segment handle removes
		// it from the arena's directory.
		w := b.seg.Weigh(p)
		if keep != nil && keep(p, tag) {
			b.ents[n] = p
			if b.tags != nil {
				b.tags[n] = tag
			}
			n++
			keptW += w
		} else {
			arena.Free(tid, p)
			freedW += w
		}
	}
	b.ents, b.w = b.ents[:n], keptW
	if b.tags != nil {
		b.tags = b.tags[:n]
	}
	b.c.freed.Add(uint64(freedW))
}
