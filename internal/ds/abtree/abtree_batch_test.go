package abtree_test

import (
	"sync"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds/abtree"
)

// TestSubtreeUnlinkStress hammers the merge/borrow path — the tree's
// RetireBatch call site, which unlinks two nodes per fixUnderfull — under
// every scheme the applicability matrix admits. Each thread repeatedly
// deletes its own key stride (draining leaves below the minimum degree, so
// descents trigger merges) and re-inserts it, with aggressive reclamation
// settings so batches hit the watermark/threshold logic constantly. The
// strides are disjoint, so the final membership is exact; Validate plus the
// allocator's generation checks catch any batch-retire unsoundness.
func TestSubtreeUnlinkStress(t *testing.T) {
	const (
		threads = 4
		keys    = 1 << 11
		waves   = 3
	)
	cfg := catalog.SchemeConfig{
		BagSize:    128,
		LoFraction: 0.5,
		ScanFreq:   4,
		Threshold:  48,
		EraFreq:    16,
	}
	for _, scheme := range catalog.SchemeNames {
		if !catalog.Runnable("abtree", scheme) {
			continue
		}
		t.Run(scheme, func(t *testing.T) {
			tr := abtree.New(threads)
			sch, err := catalog.NewSchemeFor(scheme, tr.Arena(), threads, cfg, tr.Requirements())
			if err != nil {
				t.Fatal(err)
			}
			g0 := sch.Guard(0)
			for k := uint64(1); k <= keys; k++ {
				if !tr.Insert(g0, k) {
					t.Fatalf("prefill Insert(%d) failed", k)
				}
			}
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					g := sch.Guard(tid)
					for wave := 0; wave < waves; wave++ {
						for k := uint64(tid + 1); k <= keys; k += threads {
							if !tr.Delete(g, k) {
								t.Errorf("Delete(%d) lost a key it owns", k)
								return
							}
						}
						for k := uint64(tid + 1); k <= keys; k += threads {
							if !tr.Insert(g, k) {
								t.Errorf("Insert(%d) found a key it just deleted", k)
								return
							}
						}
					}
				}(tid)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if got := tr.Len(); got != keys {
				t.Fatalf("Len = %d, want %d after balanced delete/insert waves", got, keys)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			st := sch.Stats()
			if st.Freed > st.Retired {
				t.Fatalf("freed %d > retired %d", st.Freed, st.Retired)
			}
			if scheme != "none" && st.Retired == 0 {
				t.Fatal("stress produced no retire traffic")
			}
		})
	}
}
