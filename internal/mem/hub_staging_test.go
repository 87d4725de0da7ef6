package mem

import (
	"sync"
	"testing"
)

// This file is the staging equivalence property test: a Hub that stages
// mixed bursts must be observably identical — allocator-stats-exact — to the
// pre-staging behavior of splitting every burst into per-owner FreeBatch
// calls, across adversarial tag interleavings and flush boundaries. Only the
// *shared-shard traffic* (GlobalOps) may differ; Frees, Live, slab growth
// and every handle's Valid flip must agree once the thread's staging is
// drained.

// stagingPattern deterministically picks the owner of the i-th retired
// record: the interleavings that historically defeated run-splitting.
type stagingPattern struct {
	name string
	tag  func(i, k int) int
}

var stagingPatterns = []stagingPattern{
	{"round-robin", func(i, k int) int { return i % k }},
	{"runs-of-2", func(i, k int) int { return (i / 2) % k }},
	{"one-owner", func(i, k int) int { return 0 }},
	{"lcg", func(i, k int) int {
		x := uint64(i)*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(k))
	}},
}

// TestHubStagingEquivalence drives a staged Hub and a reference set of
// standalone pools through identical logical free sequences and asserts the
// pool-visible outcomes are exactly equal.
func TestHubStagingEquivalence(t *testing.T) {
	const (
		k       = 3
		records = 240
		burst   = 16 // declared reclamation burst (staging flush threshold)
	)
	for _, pat := range stagingPatterns {
		for _, batch := range []int{1, 3, 7, burst, 5 * burst} {
			h := NewHub(1)
			var hubPools, refPools [k]*Pool[recA]
			for tag := 0; tag < k; tag++ {
				hubPools[tag] = NewPool[recA](Config{MaxThreads: 1, Tag: h.NextTag()})
				h.Attach(tag, hubPools[tag])
				refPools[tag] = NewPool[recA](Config{MaxThreads: 1, Tag: tag})
			}
			h.SizeCache(0, burst)
			for _, p := range refPools {
				p.SizeCache(0, burst)
			}

			// Identical allocation order per owner on both sides.
			hubPtrs := make([]Ptr, 0, records)
			refPtrs := make([]Ptr, 0, records)
			for i := 0; i < records; i++ {
				tag := pat.tag(i, k)
				hp, _ := hubPools[tag].Alloc(0)
				rp, _ := refPools[tag].Alloc(0)
				hubPtrs = append(hubPtrs, hp)
				refPtrs = append(refPtrs, rp)
			}

			// Free in bursts of `batch`: the hub takes the mixed burst
			// whole; the reference splits it per owner — the old behavior,
			// which is the semantics staging must preserve.
			for lo := 0; lo < records; lo += batch {
				hi := lo + batch
				if hi > records {
					hi = records
				}
				h.FreeBatch(0, hubPtrs[lo:hi])
				var split [k][]Ptr
				for _, p := range refPtrs[lo:hi] {
					split[p.ArenaTag()] = append(split[p.ArenaTag()], p)
				}
				for tag, ps := range split {
					refPools[tag].FreeBatch(0, ps)
				}
			}
			h.DrainCache(0)
			for _, p := range refPools {
				p.DrainCache(0)
			}

			if h.Staged() != 0 {
				t.Fatalf("%s/batch=%d: %d records stranded in staging", pat.name, batch, h.Staged())
			}
			// Staging amortization under the worst interleaving: every flush
			// carries >= burst records and the final drain adds at most one
			// dispatch per owner, where splitting per owner run would issue
			// one dispatch per record.
			if pat.name == "round-robin" && batch >= 2 {
				if d := h.Stats().Dispatches; d > records/burst+k {
					t.Fatalf("%s/batch=%d: %d pool dispatches for %d records, want <= %d",
						pat.name, batch, d, records, records/burst+k)
				}
			}
			for tag := 0; tag < k; tag++ {
				hs, rs := hubPools[tag].Stats(), refPools[tag].Stats()
				if hs.Allocs != rs.Allocs || hs.Frees != rs.Frees || hs.Live != rs.Live || hs.SlabBytes != rs.SlabBytes {
					t.Fatalf("%s/batch=%d tag %d: staged %+v != direct %+v", pat.name, batch, tag, hs, rs)
				}
				if hs.Live != 0 {
					t.Fatalf("%s/batch=%d tag %d: %d live records after full free", pat.name, batch, tag, hs.Live)
				}
			}
			for i := range hubPtrs {
				if h.Valid(hubPtrs[i]) {
					t.Fatalf("%s/batch=%d: hub handle %v valid after drain", pat.name, batch, hubPtrs[i])
				}
				if refPools[refPtrs[i].ArenaTag()].Valid(refPtrs[i]) {
					t.Fatalf("%s/batch=%d: reference handle %v valid after drain", pat.name, batch, refPtrs[i])
				}
			}
		}
	}
}

// TestHubStagingConcurrent exercises the staging seam under -race: several
// owners stage and flush against the same pools concurrently, a pool
// attaches mid-run (its SizeCache replay racing the owners' traffic), and
// the books must balance exactly after every owner drains.
func TestHubStagingConcurrent(t *testing.T) {
	const (
		tids   = 4
		rounds = 50
		burst  = 32
	)
	h := NewHub(tids)
	pa := NewPool[recA](Config{MaxThreads: tids, Tag: h.NextTag()})
	h.Attach(0, pa)
	pb := NewPool[recB](Config{MaxThreads: tids, Tag: h.NextTag()})
	h.Attach(1, pb)
	for tid := 0; tid < tids; tid++ {
		h.SizeCache(tid, burst)
	}

	var late *Pool[recA]
	var attach sync.Once
	var wg sync.WaitGroup
	for tid := 0; tid < tids; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if tid == 0 && r == rounds/2 {
					// A structure attaches while every owner is mid-burst:
					// the replayed SizeCache races their Alloc/Free traffic.
					attach.Do(func() {
						late = NewPool[recA](Config{MaxThreads: tids, Tag: h.NextTag()})
						h.Attach(2, late)
					})
				}
				var ps []Ptr
				for i := 0; i < burst/2; i++ {
					a, _ := pa.Alloc(tid)
					b, _ := pb.Alloc(tid)
					ps = append(ps, a, b)
					if tid == 0 && late != nil {
						c, _ := late.Alloc(tid)
						ps = append(ps, c)
					}
				}
				h.FreeBatch(tid, ps)
			}
			h.DrainCache(tid)
		}(tid)
	}
	wg.Wait()

	if h.Staged() != 0 {
		t.Fatalf("%d records stranded in staging after all owners drained", h.Staged())
	}
	for _, st := range []Stats{pa.Stats(), pb.Stats()} {
		if st.Allocs != st.Frees || st.Live != 0 {
			t.Fatalf("books unbalanced: %+v", st)
		}
	}
	if late == nil {
		t.Fatal("late pool never attached")
	}
	if st := late.Stats(); st.Allocs != st.Frees || st.Live != 0 {
		t.Fatalf("late pool unbalanced: %+v", st)
	}
}
