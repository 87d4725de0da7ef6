package bench

import (
	"fmt"
	"sync"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

type retireRec struct{ _ [2]uint64 }

// retireCfg aligns every scheme's trigger cadence on small thresholds so the
// equivalence runs exercise reclamation repeatedly. The batch sizes used by
// the tests divide BagSize, Threshold, Threshold/4 and EraFreq, so batch
// boundaries land exactly on the per-record trigger points.
func retireCfg() catalog.SchemeConfig {
	return catalog.SchemeConfig{
		BagSize:    64,
		LoFraction: 0.5,
		ScanFreq:   4,
		Threshold:  64,
		EraFreq:    16,
	}
}

// TestRetireBatchEquivalence is the property test for the RetireBatch seam:
// for every scheme, feeding records through RetireBatch must be
// observationally equivalent to a per-record Retire loop — identical
// smr.Stats (retired, freed, scans, signals, advances) and identical
// allocator accounting. Every third handle carries the Harris mark bit to
// check batch retire strips marks exactly like Retire does.
func TestRetireBatchEquivalence(t *testing.T) {
	const total, threads = 192, 2
	run := func(t *testing.T, scheme string, batch int, batched bool) (smr.Stats, mem.Stats) {
		pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads})
		sch, err := catalog.NewSchemeFor(scheme, pool, threads, retireCfg(), ds.DefaultRequirements)
		if err != nil {
			t.Fatal(err)
		}
		g := sch.Guard(0)
		buf := make([]mem.Ptr, 0, batch)
		for i := 0; i < total; i++ {
			p, _ := pool.Alloc(0)
			g.OnAlloc(p)
			if i%3 == 0 {
				p = p.WithMark()
			}
			if !batched {
				g.Retire(p)
				continue
			}
			buf = append(buf, p)
			if len(buf) == batch {
				g.RetireBatch(buf)
				buf = buf[:0]
			}
		}
		return sch.Stats(), pool.Stats()
	}
	for _, scheme := range catalog.SchemeNames {
		for _, batch := range []int{2, 8, 16} {
			t.Run(fmt.Sprintf("%s/batch%d", scheme, batch), func(t *testing.T) {
				loopS, loopM := run(t, scheme, batch, false)
				batchS, batchM := run(t, scheme, batch, true)
				if loopS != batchS {
					t.Fatalf("stats diverge:\n  loop  %+v\n  batch %+v", loopS, batchS)
				}
				if loopM.Allocs != batchM.Allocs || loopM.Frees != batchM.Frees {
					t.Fatalf("allocator accounting diverges:\n  loop  allocs=%d frees=%d\n  batch allocs=%d frees=%d",
						loopM.Allocs, loopM.Frees, batchM.Allocs, batchM.Frees)
				}
			})
		}
	}
}

// TestRetireSplitEquivalence is the batch-split property test: retiring the
// same records through one oversized RetireBatch, through misaligned chunked
// RetireBatch calls, or through a per-record Retire loop must be stats-exact
// for every scheme whose trigger is a pure bag-length condition — the split
// paths fire their scans and signals at exactly the bag lengths the loop
// hits, whatever the handoff shape. qsbr/rcu amortize their sweep over a
// separate retire counter whose trigger can land mid-chunk, so for them the
// chunk sizes must divide the amortization period (as the structures'
// real handoffs do); misaligned shapes are exercised for the rest.
func TestRetireSplitEquivalence(t *testing.T) {
	const total, threads = 300, 2
	run := func(t *testing.T, scheme string, batch int) (smr.Stats, mem.Stats) {
		pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads})
		sch, err := catalog.NewSchemeFor(scheme, pool, threads, retireCfg(), ds.DefaultRequirements)
		if err != nil {
			t.Fatal(err)
		}
		g := sch.Guard(0)
		buf := make([]mem.Ptr, 0, batch)
		for i := 0; i < total; i++ {
			p, _ := pool.Alloc(0)
			g.OnAlloc(p)
			if i%3 == 0 {
				p = p.WithMark()
			}
			if batch == 1 {
				g.Retire(p)
				continue
			}
			buf = append(buf, p)
			if len(buf) == batch || i == total-1 {
				g.RetireBatch(buf)
				buf = buf[:0]
			}
		}
		return sch.Stats(), pool.Stats()
	}
	shapes := map[string][]int{
		// Misaligned chunks and one whole-splice handoff: exactness must
		// hold for arbitrary shapes on the split schemes.
		"default": {7, 31, 64, total},
		// Aligned with Threshold/4 = 16, the qsbr/rcu sweep amortization.
		"qsbr": {4, 16}, "rcu": {4, 16},
	}
	for _, scheme := range catalog.SchemeNames {
		sizes, ok := shapes[scheme]
		if !ok {
			sizes = shapes["default"]
		}
		t.Run(scheme, func(t *testing.T) {
			loopS, loopM := run(t, scheme, 1)
			for _, batch := range sizes {
				gotS, gotM := run(t, scheme, batch)
				if loopS != gotS {
					t.Fatalf("batch %d: stats diverge\n  loop  %+v\n  batch %+v", batch, loopS, gotS)
				}
				if loopM.Allocs != gotM.Allocs || loopM.Frees != gotM.Frees {
					t.Fatalf("batch %d: allocator accounting diverges: loop frees=%d batch frees=%d",
						batch, loopM.Frees, gotM.Frees)
				}
			}
		})
	}
}

// TestGarbageBoundDeclarations pins the GarbageBound contract's shape for
// every scheme: the P2 claimants declare a finite positive bound that grows
// with the thread count, everyone else the Unbounded sentinel.
func TestGarbageBoundDeclarations(t *testing.T) {
	bounded := map[string]bool{"nbr": true, "nbr+": true, "hp": true, "he": true, "ibr": true}
	for _, scheme := range catalog.SchemeNames {
		t.Run(scheme, func(t *testing.T) {
			bound := func(threads int) int {
				pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads})
				sch, err := catalog.NewSchemeFor(scheme, pool, threads, retireCfg(), ds.DefaultRequirements)
				if err != nil {
					t.Fatal(err)
				}
				return sch.GarbageBound()
			}
			b2, b4 := bound(2), bound(4)
			if !bounded[scheme] {
				if b2 != smr.Unbounded || b4 != smr.Unbounded {
					t.Fatalf("want Unbounded sentinel, got %d / %d", b2, b4)
				}
				return
			}
			if b2 <= 0 || b4 <= 0 {
				t.Fatalf("bounded scheme declared non-positive bound: %d / %d", b2, b4)
			}
			if b4 <= b2 {
				t.Fatalf("bound must grow with thread count: N=2 → %d, N=4 → %d", b2, b4)
			}
		})
	}
}

// TestRetireBatchEmptyIsNoop checks the degenerate batch for every scheme.
func TestRetireBatchEmptyIsNoop(t *testing.T) {
	for _, scheme := range catalog.SchemeNames {
		t.Run(scheme, func(t *testing.T) {
			pool := mem.NewPool[retireRec](mem.Config{MaxThreads: 1})
			sch, err := catalog.NewSchemeFor(scheme, pool, 1, retireCfg(), ds.DefaultRequirements)
			if err != nil {
				t.Fatal(err)
			}
			sch.Guard(0).RetireBatch(nil)
			sch.Guard(0).RetireBatch([]mem.Ptr{})
			if st := sch.Stats(); st.Retired != 0 {
				t.Fatalf("empty batch retired %d", st.Retired)
			}
		})
	}
}

// TestRetireBatchConcurrentRace hammers mixed Retire / RetireBatch traffic
// from every thread of every scheme. The pool's generation CAS turns any
// double free into a panic, so an unsafe batch path cannot pass silently,
// and the race detector covers the shared bookkeeping (era clocks, epoch
// rotation, signal broadcast, shard flushes).
func TestRetireBatchConcurrentRace(t *testing.T) {
	const threads, rounds, batch = 4, 50, 16
	for _, scheme := range catalog.SchemeNames {
		t.Run(scheme, func(t *testing.T) {
			pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads, CacheSize: 16, Shards: 4})
			sch, err := catalog.NewSchemeFor(scheme, pool, threads, retireCfg(), ds.DefaultRequirements)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					g := sch.Guard(tid)
					buf := make([]mem.Ptr, 0, batch)
					for r := 0; r < rounds; r++ {
						buf = buf[:0]
						for i := 0; i < batch; i++ {
							p, _ := pool.Alloc(tid)
							g.OnAlloc(p)
							buf = append(buf, p)
						}
						if r%2 == 0 {
							g.RetireBatch(buf)
						} else {
							for _, p := range buf {
								g.Retire(p)
							}
						}
					}
				}(tid)
			}
			wg.Wait()
			st := sch.Stats()
			if want := uint64(threads * rounds * batch); st.Retired != want {
				t.Fatalf("retired = %d, want %d", st.Retired, want)
			}
			if st.Freed > st.Retired {
				t.Fatalf("freed %d > retired %d", st.Freed, st.Retired)
			}
		})
	}
}

// TestRetireSegmentEquivalence is the segment-seam property test: for every
// scheme, retiring runs as segment handles (AllocBatch + NewSegment +
// RetireSegment) must account exactly like retiring the same runs' members
// through a per-record Retire loop — equal Retired, equal Freed after a
// quiescent drain, no Freed > Retired inversion — while the segment
// counters show the cut policy: identity and epoch schemes bag each handle
// whole (one entry per segment, however oversized), the era schemes carve an
// oversized one into ceil(K/Threshold) threshold-weight pieces.
func TestRetireSegmentEquivalence(t *testing.T) {
	const threads = 2
	sizes := []int{8, 150, 40, 150, 300} // 150 and 300 exceed every threshold in retireCfg
	threshold := retireCfg().Threshold
	carves := map[string]bool{"he": true, "ibr": true}
	run := func(t *testing.T, scheme string, segments bool) (smr.Stats, mem.Stats) {
		pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads})
		sch, err := catalog.NewSchemeFor(scheme, pool, threads, retireCfg(), ds.DefaultRequirements)
		if err != nil {
			t.Fatal(err)
		}
		g := sch.Guard(0)
		for _, k := range sizes {
			run := pool.AllocBatch(0, k)
			if segments {
				seg := pool.NewSegment(0, run)
				g.OnAlloc(seg)
				g.RetireSegment(seg)
				continue
			}
			for i := 0; i < k; i++ {
				g.OnAlloc(run.At(i))
			}
			for i := 0; i < k; i++ {
				g.Retire(run.At(i))
			}
		}
		if d, ok := sch.(smr.Drainer); ok && scheme != "none" {
			for round := 0; round < 100; round++ {
				if st := sch.Stats(); st.Retired == st.Freed {
					break
				}
				for tid := 0; tid < threads; tid++ {
					d.Drain(tid)
				}
			}
		}
		return sch.Stats(), pool.Stats()
	}
	var records, pieces, whole uint64
	for _, k := range sizes {
		records += uint64(k)
		pieces += uint64((k + threshold - 1) / threshold)
		whole++
	}
	for _, scheme := range catalog.SchemeNames {
		t.Run(scheme, func(t *testing.T) {
			loopS, loopM := run(t, scheme, false)
			segS, segM := run(t, scheme, true)
			if loopS.Retired != records || segS.Retired != records {
				t.Fatalf("retired: loop %d, segments %d, want %d", loopS.Retired, segS.Retired, records)
			}
			if loopS.Freed != segS.Freed {
				t.Fatalf("freed after drain: loop %d, segments %d", loopS.Freed, segS.Freed)
			}
			if scheme != "none" && segS.Freed != records {
				t.Fatalf("drain left %d of %d segment records unfreed", records-segS.Freed, records)
			}
			if loopS.Invalid() || segS.Invalid() {
				t.Fatalf("freed > retired: loop %+v, segments %+v", loopS, segS)
			}
			if loopS.Segments != 0 || loopS.SegRecords != 0 {
				t.Fatalf("per-record loop counted segments: %d / %d", loopS.Segments, loopS.SegRecords)
			}
			want := whole
			if carves[scheme] {
				want = pieces
			}
			if segS.Segments != want || segS.SegRecords != records {
				t.Fatalf("segments = %d covering %d records, want %d covering %d",
					segS.Segments, segS.SegRecords, want, records)
			}
			// Every bagged handle — an original segment or a carved piece —
			// is one extra pool slot freed on top of the member records.
			if scheme != "none" && segM.Frees-loopM.Frees != segS.Segments {
				t.Fatalf("pool frees: segments %d, loop %d, want %d handle frees on top",
					segM.Frees, loopM.Frees, segS.Segments)
			}
		})
	}
}
