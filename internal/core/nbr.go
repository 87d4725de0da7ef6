// Package core implements the paper's contribution: NBR (neutralization
// based reclamation, Algorithm 1) and its optimized variant NBR+
// (Algorithm 2).
//
// Each thread accumulates unlinked records in a private limbo bag. When the
// bag reaches the HiWatermark the thread signals all peers (sigsim stands in
// for pthread_kill); peers in a read phase are neutralized — they jump back
// to the start of Φread, discarding every private pointer — while peers in a
// write phase keep running but have already published *reservations* for the
// records they will touch. The reclaimer then scans all reservations and
// frees every unreserved record in its bag, which bounds garbage at
// HiWatermark + R·(N−1) records per thread (the paper's Lemma 10) without
// per-record fences on the read path.
//
// NBR+ adds per-thread even/odd announcement timestamps around signalAll.
// A thread whose bag crosses the LoWatermark bookmarks its bag position,
// snapshots all timestamps, and thereafter watches for any peer's timestamp
// to grow by ≥2 — proof that a complete relaxed grace period (RGP: signals
// begun *and* finished) happened after the bookmark, so everything retired
// before the bookmark is reclaimable without sending any signals of its own.
// In the best case all n threads reclaim after a single n−1-signal RGP
// instead of n(n−1) signals.
package core

import (
	"fmt"
	"sync"

	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// Config tunes NBR/NBR+.
type Config struct {
	// Plus selects NBR+ (Algorithm 2) instead of NBR (Algorithm 1).
	Plus bool
	// BagSize is the limbo-bag HiWatermark S (paper: 32k on a 192-thread
	// machine; default 1024, scaled for this host — see DESIGN.md §6).
	BagSize int
	// LoFraction places the NBR+ LoWatermark at LoFraction·BagSize.
	// Default 0.5 ("one half full").
	LoFraction float64
	// ScanFreq amortizes the NBR+ announceTS scan over this many retire
	// calls while between the watermarks ("we amortize the overhead of
	// scanning announceTS over many retire operations"). Default 32.
	ScanFreq int
	// Slots is R, the per-thread reservation capacity. The paper's data
	// structures need at most 3; default 4. R·N must stay well below
	// BagSize so reclamation always makes progress.
	Slots int
	// Signals configures the simulated signal costs.
	Signals sigsim.Config
}

func (c Config) withDefaults() Config {
	if c.BagSize <= 0 {
		c.BagSize = 1024
	}
	if c.LoFraction <= 0 || c.LoFraction >= 1 {
		c.LoFraction = 0.5
	}
	if c.ScanFreq <= 0 {
		c.ScanFreq = 32
	}
	if c.Slots <= 0 {
		c.Slots = 4
	}
	return c
}

// Scheme is an NBR or NBR+ instance bound to one arena.
type Scheme struct {
	arena mem.Arena
	cfg   Config
	group *sigsim.Group

	// Membership carries the active mask every reservation scan and signal
	// broadcast iterates (full in fixed-N mode, the registry's after
	// AttachRegistry — scan and signal cost tracks live threads rather
	// than capacity) plus the registry itself for orphan adoption and
	// scan-round reporting.
	smr.Membership

	// loWm is the NBR+ LoWatermark in records, fixed at construction so the
	// Retire fast path never touches floating point.
	loWm int

	// reservations is the shared SWMR array (Algorithm 1 line 5):
	// N rows of R slots, row i written only by thread i.
	reservations []smr.Pad64

	// announceTS is NBR+'s per-thread RGP timestamp (Algorithm 2 line 4):
	// odd while the thread is broadcasting signals, even otherwise.
	announceTS []smr.Pad64

	// forceScan is the ForceRound collection scratch, serialized by forceMu
	// (any acquirer may force a round; guards never touch this scratch).
	forceMu   sync.Mutex
	forceScan smr.ScanSet

	// seg is the segment-retirement state: the arena's segment interface and
	// the largest retired segment weight, which scales the declared bounds.
	seg smr.SegState

	// rec is the flight recorder shared with the registry and signal group;
	// nil or disabled costs the read/retire hot paths one predictable branch.
	rec *obs.Recorder

	gs []*guard
}

// New creates an NBR/NBR+ scheme for the given arena and thread count.
func New(arena mem.Arena, threads int, cfg Config) *Scheme {
	cfg = cfg.withDefaults()
	if threads*cfg.Slots >= cfg.BagSize {
		panic(fmt.Sprintf("core: N·R (%d) must be below BagSize (%d) or reclamation cannot progress",
			threads*cfg.Slots, cfg.BagSize))
	}
	s := &Scheme{
		arena:        arena,
		cfg:          cfg,
		loWm:         int(float64(cfg.BagSize) * cfg.LoFraction),
		group:        sigsim.NewGroup(threads, cfg.Signals),
		reservations: make([]smr.Pad64, threads*cfg.Slots),
		announceTS:   make([]smr.Pad64, threads),
		forceScan:    smr.NewScanSet(threads * cfg.Slots),
	}
	s.seg.Init(arena)
	s.InitFixed(threads)
	s.group.SetActive(s.ActiveMask)
	s.gs = make([]*guard, threads)
	for i := range s.gs {
		g := &guard{
			s:      s,
			tid:    i,
			row:    s.reservations[i*cfg.Slots : (i+1)*cfg.Slots],
			scan:   smr.NewScanSet(threads * cfg.Slots),
			scanTS: make([]uint64, threads),
		}
		g.bag.Init(&s.seg, &g.ctr, cfg.BagSize, false)
		s.gs[i] = g
	}
	return s
}

// Name implements smr.Scheme.
func (s *Scheme) Name() string {
	if s.cfg.Plus {
		return "nbr+"
	}
	return "nbr"
}

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// Stats implements smr.Scheme.
func (s *Scheme) Stats() smr.Stats {
	var st smr.Stats
	for _, g := range s.gs {
		g.ctr.AddTo(&st)
	}
	gs := s.group.Stats()
	st.Signals = gs.Sent
	st.Neutralized = gs.Neutralized
	st.Ignored = gs.Ignored
	return st
}

// ThreadBound returns the worst-case number of unreclaimed records one
// thread can hold: Lemma 10's HiWatermark + R·(N−1), with the batch-split
// overshoot folded in. RetireBatch appends at most one bag-weight's worth of
// records between watermark checks (the chunk cap in beforeRetire), so a
// splice of any length stretches the bag by at most BagSize beyond the
// watermark — 2·BagSize total for the watermark terms. The segW terms cover
// segment handles, each pinning up to MaxWeight member records: the N·R
// survivors a scan can find reserved, plus the one in-flight RetireSegment
// append — identity-based reservations forbid carving a reserved handle
// (see RetireSegment), so a whole segment can land in one append after the
// watermark check.
func (s *Scheme) ThreadBound() int {
	return 2*s.cfg.BagSize + (len(s.gs)*s.cfg.Slots+1)*s.seg.MaxWeight()
}

// GarbageBound implements smr.Scheme: the enforced system-wide bound is
// every thread at its Lemma 10 worst case simultaneously, plus the orphan
// allowance — under dynamic membership, up to N concurrently departing
// threads can each strand one survivor set (records peers still reserve,
// ≤ N·R each, each worth up to segW records) on the orphan list before the
// next reclaimer adopts it. The declaration is against MaxThreads and holds
// across membership churn.
func (s *Scheme) GarbageBound() int {
	n := len(s.gs)
	return n*s.ThreadBound() + n*n*s.cfg.Slots*s.seg.MaxWeight()
}

// ReclaimBurst implements smr.Scheme: a reclamation frees at most one full
// limbo bag at once.
func (s *Scheme) ReclaimBurst() int { return s.cfg.BagSize }

// AttachRegistry implements smr.Member: the scheme adopts the registry's
// active mask for its scans and signal broadcasts and registers the lease
// hooks. Must be called before any guard is used.
func (s *Scheme) AttachRegistry(r *smr.Registry) {
	s.Join(r, len(s.gs), "core", s.attachThread)
	s.group.SetActive(s.ActiveMask)
	if rec := r.Recorder(); rec != nil {
		s.SetRecorder(rec)
	}
}

// SetRecorder implements smr.Recordable: the scheme and its signal group
// join the recorder's timeline. Bind wires it from the registry; fixed-N
// harnesses (dstest) call it directly. Construction-time wiring only.
func (s *Scheme) SetRecorder(rec *obs.Recorder) {
	s.rec = rec
	s.group.SetRecorder(rec)
}

// attachThread readies slot tid for a new leaseholder: stale signal posts
// aimed at the predecessor are absorbed, the reservation row is cleared, and
// the NBR+ lease-local watermark state is reset. announceTS is deliberately
// left monotone across occupants — a peer's bookmark snapshot of this slot
// then remains sound: any observed +2 still certifies a complete broadcast
// that happened after the snapshot, whoever occupied the slot.
func (s *Scheme) attachThread(tid int) {
	s.group.Attach(tid)
	g := s.gs[tid]
	for i := range g.row {
		g.row[i].Store(0)
	}
	g.atLoWm = false
	g.bookmark = 0
	g.sinceScan = 0
}

// ReclaimAll implements smr.Quiescer: adopt any previously orphaned records
// into tid's bag and run one full signal-and-scan reclamation over
// everything. Part of the shared recovery path; runs on whichever goroutine
// recovers the slot (owner or reaper), after the slot left the active mask.
func (s *Scheme) ReclaimAll(tid int) {
	g := s.gs[tid]
	g.bag.Adopt(&s.Membership, 0, nil)
	if g.bag.Len() == 0 {
		return
	}
	if s.cfg.Plus {
		s.announceTS[tid].Add(1)
		s.group.SignalAll(tid)
		s.announceTS[tid].Add(1)
	} else {
		s.group.SignalAll(tid)
	}
	g.reclaimFreeable(g.bag.Len())
}

// OrphanSurvivors implements smr.Quiescer: hand the records peers still
// reserve (at most N·R) to the shared orphan list for the next reclaimer.
func (s *Scheme) OrphanSurvivors(tid int) { s.gs[tid].bag.Orphan(s.Reg) }

// ResetSlot implements smr.Quiescer: neutralize tid's announcement state.
// announceTS stays monotone across occupants (see attachThread).
func (s *Scheme) ResetSlot(tid int) {
	g := s.gs[tid]
	for i := range g.row {
		g.row[i].Store(0)
	}
	g.cleanUp()
}

// RevokeSlot implements smr.SlotRevoker: post a sticky revocation so a
// zombie occupant still running on tid is killed (sigsim.Revoked) at its
// next delivery point — the same channel neutralization uses, aimed at one
// slot.
func (s *Scheme) RevokeSlot(tid int) { s.group.Revoke(tid) }

// ForceRound implements smr.RoundForcer: one bracketed reservation
// collection over the active mask — the same snapshot reclaimFreeable takes
// before sweeping, minus the sweep — so the registry's quarantine clock
// advances without waiting for a bag to reach its watermark.
func (s *Scheme) ForceRound() bool {
	s.forceMu.Lock()
	defer s.forceMu.Unlock()
	return s.Membership.ForceRound(func() {
		s.forceScan.CollectRows(s.reservations, s.cfg.Slots, s.ActiveMask)
	})
}

// Drain implements smr.Drainer: adopt all orphans and reclaim everything the
// bag holds on behalf of tid, which the caller must own. Records reserved by
// concurrently active peers survive in the bag.
func (s *Scheme) Drain(tid int) {
	g := s.gs[tid]
	g.bag.Adopt(&s.Membership, 0, nil)
	if g.bag.Len() == 0 {
		return
	}
	if s.cfg.Plus {
		s.announceTS[tid].Add(1)
		s.group.SignalAll(tid)
		s.announceTS[tid].Add(1)
	} else {
		s.group.SignalAll(tid)
	}
	g.reclaimFreeable(g.bag.Len())
	g.cleanUp()
}

// LimboLen reports thread tid's current limbo-bag population (test hook;
// call only from tid or while tid is quiescent).
func (s *Scheme) LimboLen(tid int) int { return s.gs[tid].bag.Len() }

// TSScans reports how many announceTS scans thread tid has performed (test
// hook for the record-counted ScanFreq cadence; NBR+ only).
func (s *Scheme) TSScans(tid int) uint64 { return s.gs[tid].tsScans.Load() }

type guard struct {
	s   *Scheme
	tid int

	// row is this thread's reservation row, sliced out of the shared array
	// once at construction so Reserve/BeginRead never multiply tid·R.
	row []smr.Pad64

	// bag is the limbo bag; every watermark comparison runs against its
	// record weight, so the enforced bound counts each member record
	// behind a segment handle.
	bag  smr.Bag
	ctr  smr.Counters
	scan smr.ScanSet // reclaim scratch, reused across scans

	// NBR+ LoWatermark state (Algorithm 2 lines 1–3). atLoWm is the
	// inverse of the paper's firstLoWmEntryFlag.
	atLoWm    bool
	bookmark  int // bag index corresponding to bookmarkTail
	scanTS    []uint64
	sinceScan int

	// readFrom is the recorder clock at BeginRead (0 when not measured);
	// owner-only, closed into the read-phase histogram at EndRead.
	readFrom int64

	tsScans smr.Counter // NBR+ announceTS scans (cadence observability)
}

func (g *guard) Tid() int { return g.tid }

// BeginOp and EndOp delimit the preamble/quiescent phases; NBR needs no
// per-operation work outside the read/write phase calls.
func (g *guard) BeginOp() {}
func (g *guard) EndOp()   {}

// BeginRead is beginΦread (Algorithm 1 lines 6–9): clear the reservation
// row, then become restartable. The order matters — a reclaimer scanning
// after a signal must not see reservations from a previous operation once
// this thread can be neutralized. SetRestartable is also the sigsetjmp
// point: neutralization unwinds to smr.Execute, which re-runs the operation
// body, landing here again.
func (g *guard) BeginRead() {
	for i := range g.row {
		g.row[i].Store(0)
	}
	if g.s.rec.Enabled() {
		g.readFrom = g.s.rec.Clock()
		g.s.rec.Rec(g.tid, obs.EvReadBegin, 0)
	}
	g.s.group.SetRestartable(g.tid)
}

// Reserve announces a record the upcoming write phase will access
// (Algorithm 1 line 11). It must be followed by EndRead before the record
// is written.
func (g *guard) Reserve(i int, p mem.Ptr) {
	if i >= len(g.row) {
		panic("core: reservation slot out of range; raise Config.Slots")
	}
	g.row[i].Store(uint64(p.Unmarked()))
}

// EndRead is endΦread's CAS on restartable (Algorithm 1 line 12). Under
// sequentially consistent atomics the successful transition orders every
// Reserve store before any reclaimer's reservation scan that follows a
// signal to this thread; if a signal already arrived, the transition
// neutralizes instead (see sigsim.ClearRestartable).
func (g *guard) EndRead() {
	g.s.group.ClearRestartable(g.tid)
	if from := g.readFrom; from != 0 {
		// Only a successful transition lands here: a neutralized EndRead
		// panics above, leaving the phase open on the timeline (exactly what
		// a stall dump should show) until the restart's BeginRead reopens it.
		g.readFrom = 0
		g.s.rec.ObserveSince(obs.HistReadPhase, from)
		g.s.rec.Rec(g.tid, obs.EvReadEnd, 0)
	}
}

// Protect is NBR's record-access barrier: deliver any pending neutralization
// signal before the record is touched (the paper's Assumption 4).
func (g *guard) Protect(_ int, _ mem.Ptr) {
	g.s.group.Poll(g.tid)
}

func (g *guard) NeedsValidation() bool { return false }
func (g *guard) OnAlloc(mem.Ptr)       {}

// OnStale handles a read that found a freed slot. Frees are ordered after
// signal posts, so a pending signal must now be visible and the re-poll
// neutralizes this thread; if it does not, the scheme itself is broken.
func (g *guard) OnStale(p mem.Ptr) {
	g.s.group.Poll(g.tid)
	panic("core: use-after-free not explained by a pending signal: " + p.String())
}

// Retire implements Algorithm 1 lines 14–20 (NBR) or Algorithm 2 lines 5–26
// (NBR+).
func (g *guard) Retire(p mem.Ptr) {
	g.beforeRetire(1)
	g.bag.Add(p)
	// Garbage-age sampling: stamp the handle so the hub's free seam can
	// measure its retire→free residence. One branch when the recorder is off.
	g.s.rec.SampleRetire(uint64(p.Unmarked()))
}

// RetireBatch implements smr.Guard: the batch lands in the bag in chunks
// cut at the watermarks (see beforeRetire), with the watermark bookkeeping
// running once per chunk instead of once per record — still O(1) amortized
// shared interactions per unlink, but the HiWatermark check can never be
// outrun by a single oversized splice. The trigger points are exactly the
// ones a per-record Retire loop would hit, so splitting is observationally
// equivalent to the loop while restoring Lemma 10's bound: the bag holds at
// most BagSize records plus the one in-flight chunk (see ThreadBound).
func (g *guard) RetireBatch(ps []mem.Ptr) {
	if len(ps) == 0 {
		return
	}
	g.s.rec.SampleRetire(uint64(ps[0].Unmarked())) // age-sample one record per splice
	for len(ps) > 0 {
		take := g.beforeRetire(len(ps))
		g.bag.Append(ps[:take], 0)
		ps = ps[take:]
	}
}

// RetireSegment implements smr.Guard: reservations name handles, so the
// segment is bagged whole after one watermark check against its weight
// (see smr.Guard.RetireSegment and ThreadBound).
func (g *guard) RetireSegment(p mem.Ptr) {
	w := g.bag.Segment(p)
	if w == 0 {
		g.Retire(p)
		return
	}
	g.beforeRetire(w)
	g.bag.AddSegment(p, w, 0)
	if g.s.rec.Enabled() {
		g.s.rec.Rec(g.tid, obs.EvSegRetire, uint64(w))
		g.s.rec.SampleRetire(uint64(p.Unmarked()))
	}
}

// beforeRetire runs the watermark bookkeeping for the next chunk of records
// about to land in the bag (avail record-weight is ready) and returns how
// much weight may be appended before the next check. All comparisons run on
// the bag's record weight, so a segment handle counts its whole member run. Chunks are capped so that every trigger the per-record loop
// would hit lands exactly on a chunk boundary:
// the HiWatermark (reclamation), and under NBR+ also the LoWatermark (the
// bookmark must be taken at lo, not skipped by a chunk that jumps straight
// to hi — otherwise batch-heavy traffic never enters the passive RGP path
// and pays the full signalAll cost) and the remaining ScanFreq budget (so
// announceTS scans fire at the same record counts as the loop, with no
// overshoot discarded).
func (g *guard) beforeRetire(avail int) int {
	if g.s.cfg.Plus {
		g.checkPlus()
	} else if g.bag.Weight() >= g.s.cfg.BagSize {
		// A reclamation is due anyway: adopt up to one bag's worth of
		// orphaned records so departed threads' garbage rides this scan.
		g.bag.Adopt(&g.s.Membership, g.s.cfg.BagSize, nil)
		g.s.group.SignalAll(g.tid)
		g.reclaimFreeable(g.bag.Len())
	}
	take := g.s.cfg.BagSize - g.bag.Weight()
	if g.s.cfg.Plus {
		if !g.atLoWm {
			if room := g.s.loWm - g.bag.Weight(); room > 0 && room < take {
				take = room
			}
		} else if room := g.s.cfg.ScanFreq - g.sinceScan; room > 0 && room < take {
			take = room
		}
	}
	if take < 1 {
		// Reached when weighted survivors pin the bag at or past the
		// watermark: a reclamation leaves at most N·R bag entries, but each
		// may be a segment handle worth up to MaxWeight records, so the bag
		// weight can exceed BagSize even though N·R < BagSize. Degrade to
		// per-record checks rather than stalling; the overshoot stays within
		// ThreadBound's survivor terms.
		take = 1
	}
	if take > avail {
		take = avail
	}
	if g.s.cfg.Plus && g.atLoWm {
		// The announceTS scan cadence counts records, not retire handoffs:
		// a structure retiring mostly via RetireBatch must reach the
		// passive-reclamation scan exactly as often as one retiring the
		// same records one by one (ROADMAP item from PR 2).
		g.sinceScan += take
	}
	return take
}

// checkPlus is the NBR+ watermark logic.
func (g *guard) checkPlus() {
	hi, lo := g.s.cfg.BagSize, g.s.loWm
	switch w := g.bag.Weight(); {
	case w >= hi:
		// RGP begin (odd) … signalAll … RGP end (even). Orphans adopted
		// first so departed threads' garbage rides the same scan.
		g.bag.Adopt(&g.s.Membership, hi, nil)
		g.s.announceTS[g.tid].Add(1)
		g.s.group.SignalAll(g.tid)
		g.s.announceTS[g.tid].Add(1)
		g.reclaimFreeable(g.bag.Len())
		g.cleanUp()
	case w >= lo:
		if !g.atLoWm {
			g.atLoWm = true
			g.bookmark = g.bag.Len()
			for i := range g.s.announceTS {
				g.scanTS[i] = g.s.announceTS[i].Load()
			}
			g.sinceScan = 0
			return
		}
		if g.sinceScan < g.s.cfg.ScanFreq {
			return
		}
		g.sinceScan = 0
		g.tsScans.Inc()
		// Only active peers can complete an RGP, so the check walks the
		// membership mask; the bookmark snapshot covers every slot (all
		// announceTS values are monotone across occupants), so a peer that
		// activated after the snapshot compares against its predecessor's
		// value — which can only make the +2 test harder, never easier.
		certified := false
		g.s.ActiveMask.Range(func(otid int) {
			if certified {
				return
			}
			// An odd snapshot caught otid mid-broadcast: that RGP began
			// before our bookmark, so its completion alone proves nothing
			// about records bookmarked after its signals went out. Round the
			// snapshot up to the next even value (the in-flight RGP's end):
			// base+1 is then the first post-bookmark RGP begin and base+2
			// its end, so any observed ts ≥ base+2 — the counter is monotone
			// and steps by one, so an odd ts ≥ base+3 also proves base+2 was
			// passed — certifies a complete post-bookmark broadcast.
			base := g.scanTS[otid]
			base += base & 1
			if g.s.announceTS[otid].Load() >= base+2 {
				certified = true
			}
		})
		if certified {
			// A peer began and finished a full signal broadcast after our
			// bookmark: everything retired before the bookmark has been
			// discarded or reserved by every thread.
			g.reclaimFreeable(g.bookmark)
			g.cleanUp()
		}
	}
}

// cleanUp resets the LoWatermark bookkeeping (Algorithm 2 lines 27–29).
func (g *guard) cleanUp() {
	g.atLoWm = false
	g.sinceScan = 0
}

// reclaimFreeable frees every record in the first upto bag entries that no
// thread has reserved (Algorithm 1 lines 21–25). Reserved records stay in
// the bag — there are at most N·R of them, which is what bounds the bag.
//
// The reservation snapshot is a flat sorted scratch (one pass, one sort,
// binary-search membership) and the freeable records go back to the arena in
// a single FreeBatch call, so a reclaim burst costs zero heap allocations
// and one free-list interaction regardless of bag size.
func (g *guard) reclaimFreeable(upto int) {
	if r := g.s.Reg; r != nil {
		r.BeginScan()
		defer r.EndScan()
	}
	g.scan.CollectRows(g.s.reservations, g.s.cfg.Slots, g.s.ActiveMask)
	g.bag.SweepSet(&g.scan, g.s.arena, g.tid, upto)
}
