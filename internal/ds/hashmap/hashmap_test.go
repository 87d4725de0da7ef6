package hashmap_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds/hashmap"
	"nbr/internal/dstest"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

func factory() dstest.Factory {
	return dstest.Factory{
		Name: "hashmap",
		New: func(threads int) dstest.Instance {
			m := hashmap.New(threads)
			return dstest.Instance{Set: m, Arena: m.Arena()}
		},
		// The oversized-splice input: every chain key hashes to bucket 0 and
		// its split-order key sorts below every dummy, so the next traversal
		// must splice the whole chain in one RetireBatch.
		Chain: func(inst dstest.Instance, g smr.Guard, n int) int {
			return inst.Set.(*hashmap.Map).BuildMarkedChain(g, n)
		},
	}
}

func TestMatrix(t *testing.T) { dstest.RunAll(t, factory()) }

func newWithGuard(t *testing.T, scheme string) (*hashmap.Map, smr.Guard) {
	t.Helper()
	m := hashmap.New(1)
	s, err := catalog.NewSchemeFor(scheme, m.Arena(), 1, catalog.DefaultSchemeConfig(), m.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	return m, s.Guard(0)
}

func TestBasics(t *testing.T) {
	m, g := newWithGuard(t, "nbr+")
	if m.Len() != 0 || m.Contains(g, 1) {
		t.Fatal("fresh map must be empty")
	}
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		if !m.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if m.Insert(g, 5) {
		t.Fatal("duplicate insert succeeded")
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete(g, 3) || m.Delete(g, 3) {
		t.Fatal("delete semantics wrong")
	}
	if m.Contains(g, 3) || !m.Contains(g, 7) {
		t.Fatal("membership wrong after delete")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestResizeGrowth drives enough single-threaded inserts through the map to
// force several doublings and checks that membership, Len and the structural
// invariants survive the table swaps.
func TestResizeGrowth(t *testing.T) {
	m, g := newWithGuard(t, "nbr+")
	const keys = 400
	for k := uint64(1); k <= keys; k++ {
		if !m.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if m.Resizes() == 0 {
		t.Fatal("400 inserts over 8 initial buckets must resize")
	}
	if b := m.Buckets(); b <= 8 {
		t.Fatalf("Buckets = %d after resizing", b)
	}
	for k := uint64(1); k <= keys; k++ {
		if !m.Contains(g, k) {
			t.Fatalf("key %d lost across resizes", k)
		}
	}
	if m.Contains(g, keys+1) {
		t.Fatal("absent key reported present")
	}
	if m.Len() != keys {
		t.Fatalf("Len = %d, want %d", m.Len(), keys)
	}
	for k := uint64(1); k <= keys; k += 2 {
		if !m.Delete(g, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if m.Len() != keys/2 {
		t.Fatalf("Len = %d after deleting half, want %d", m.Len(), keys/2)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPerNodeBaseline exercises the benchmark's A/B seam: the per-node map
// dissolves each old array and retires every cell individually, so the
// scheme must see zero segments while the map still resizes correctly. Run
// under a grace-period scheme (the only family the baseline is safe under).
func TestPerNodeBaseline(t *testing.T) {
	m := hashmap.NewPerNodeWith(mem.Config{MaxThreads: 1})
	sch, err := catalog.NewSchemeFor("ibr", m.Arena(), 1, catalog.DefaultSchemeConfig(), m.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	g := sch.Guard(0)
	const keys = 200
	for k := uint64(1); k <= keys; k++ {
		if !m.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if m.Resizes() == 0 {
		t.Fatal("baseline map must still resize")
	}
	st := sch.Stats()
	if st.Segments != 0 || st.SegRecords != 0 {
		t.Fatalf("per-node baseline retired segments: %d handles, %d members", st.Segments, st.SegRecords)
	}
	if st.Retired < 8 {
		t.Fatalf("retired %d records; the first old array alone has 8 cells", st.Retired)
	}
	for k := uint64(1); k <= keys; k++ {
		if !m.Contains(g, k) {
			t.Fatalf("key %d lost across baseline resizes", k)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestResizeStormBound is the resize-storm variant of the dstest Bound suite:
// insert-heavy traffic over a wide key range drives many doublings mid-churn,
// so whole bucket arrays keep retiring as segments while a sampler races
// Stats().Garbage() against the declared bound — a segment whose weight
// escaped the watermark accounting overshoots here by the array length. The
// storm then drains to Retired == Freed, proving no segment is stranded.
func TestResizeStormBound(t *testing.T) {
	for _, scheme := range catalog.SchemeNames {
		if !catalog.Runnable("hashmap", scheme) {
			continue
		}
		scheme := scheme
		t.Run(scheme, func(t *testing.T) { resizeStorm(t, scheme) })
	}
}

func resizeStorm(t *testing.T, scheme string) {
	const threads = 6
	m := hashmap.New(threads)
	cfg := catalog.SchemeConfig{
		BagSize:    32, // one retired array can span the bag
		LoFraction: 0.5,
		ScanFreq:   4,
		Threshold:  48,
		EraFreq:    16,
	}
	sch, err := catalog.NewSchemeFor(scheme, m.Arena(), threads, cfg, m.Requirements())
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var peak atomic.Uint64
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for !stop.Load() {
			if g := sch.Stats().Garbage(); g > peak.Load() {
				peak.Store(g)
			}
			runtime.Gosched()
		}
	}()

	span := 1200
	if testing.Short() {
		span = 300
	}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := sch.Guard(tid)
			base := uint64(tid) * 100_000
			for i := 0; i < span; i++ {
				m.Insert(g, base+uint64(i)+1)
				if i%3 == 0 && i > 0 {
					// Delete an earlier key of this thread's range: steady
					// per-node retire traffic alongside the segment bursts.
					m.Delete(g, base+uint64(i/2)+1)
				}
			}
		}(tid)
	}
	wg.Wait()
	stop.Store(true)
	<-samplerDone

	if r := m.Resizes(); r < 4 {
		t.Fatalf("storm drove only %d resizes; not a storm", r)
	}
	st := sch.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence: freed %d > retired %d", st.Freed, st.Retired)
	}
	if st.Segments == 0 || st.SegRecords == 0 {
		t.Fatalf("resizes never retired a segment (Segments=%d SegRecords=%d)", st.Segments, st.SegRecords)
	}
	if g := st.Garbage(); g > peak.Load() {
		peak.Store(g)
	}
	// GarbageBound is monotone non-decreasing (it grows with the largest
	// segment weight seen), so the final reading dominates every moment a
	// garbage sample was taken.
	if bound := sch.GarbageBound(); bound != smr.Unbounded && peak.Load() > uint64(bound) {
		t.Fatalf("garbage-bound contract violated mid-storm: sampled peak %d > declared bound %d",
			peak.Load(), bound)
	}

	drainStorm(t, sch, m, threads, scheme)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// drainStorm drives the scheme to full reclamation: Retired == Freed with
// every retired bucket array fanned out. NBR reservation rows persist past
// EndOp, so each thread first runs one search on the current table — that
// re-points its reservations at live records (the current array's handle and
// unmarked nodes), unpinning everything retired during the storm.
func drainStorm(t *testing.T, sch smr.Scheme, m *hashmap.Map, threads int, scheme string) {
	t.Helper()
	if scheme == "none" {
		return // leaky never frees; Retired == Freed is unreachable
	}
	for tid := 0; tid < threads; tid++ {
		if m.Contains(sch.Guard(tid), 1<<40) {
			t.Fatal("drain probe key must be absent")
		}
	}
	d, ok := sch.(smr.Drainer)
	if !ok {
		t.Fatalf("%s does not implement smr.Drainer", scheme)
	}
	for round := 0; round < 500; round++ {
		if st := sch.Stats(); st.Retired == st.Freed {
			return
		}
		for tid := 0; tid < threads; tid++ {
			d.Drain(tid)
		}
	}
	st := sch.Stats()
	t.Fatalf("drain stalled: retired %d, freed %d (%d stranded)",
		st.Retired, st.Freed, st.Retired-st.Freed)
}
