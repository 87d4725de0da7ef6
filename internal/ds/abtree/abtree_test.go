package abtree_test

import (
	"math/rand"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/ds/abtree"
	"nbr/internal/dstest"
	"nbr/internal/smr"
)

func factory() dstest.Factory {
	return dstest.Factory{
		Name: "abtree",
		New: func(threads int) dstest.Instance {
			tr := abtree.New(threads)
			return dstest.Instance{Set: tr, Arena: tr.Arena()}
		},
	}
}

func TestMatrix(t *testing.T) { dstest.RunAll(t, factory()) }

func newWithGuard(t *testing.T, scheme string) (*abtree.Tree, smr.Guard) {
	t.Helper()
	tr := abtree.New(1)
	s, err := catalog.NewSchemeFor(scheme, tr.Arena(), 1, catalog.DefaultSchemeConfig(), ds.DefaultRequirements)
	if err != nil {
		t.Fatal(err)
	}
	return tr, s.Guard(0)
}

func TestEmptyTree(t *testing.T) {
	tr, g := newWithGuard(t, "nbr+")
	if tr.Len() != 0 || tr.Contains(g, 1) || tr.Delete(g, 1) {
		t.Fatal("fresh tree must be empty")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendingInsertSplits(t *testing.T) {
	tr, g := newWithGuard(t, "nbr+")
	const n = 500
	for k := uint64(1); k <= n; k++ {
		if !tr.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		if !tr.Contains(g, k) {
			t.Fatalf("missing key %d", k)
		}
	}
	if tr.Contains(g, n+1) {
		t.Fatal("phantom key")
	}
}

func TestDescendingInsertSplits(t *testing.T) {
	tr, g := newWithGuard(t, "debra")
	const n = 500
	for k := uint64(n); k >= 1; k-- {
		if !tr.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDeleteTriggersMergesAndCollapse(t *testing.T) {
	tr, g := newWithGuard(t, "nbr+")
	const n = 800
	for k := uint64(1); k <= n; k++ {
		tr.Insert(g, k)
	}
	// Delete everything in an interleaved order to hit merges, borrows and
	// root collapses at every level.
	for stride := uint64(7); stride >= 1; stride-- {
		for k := stride; k <= n; k += 7 {
			if tr.Delete(g, k) {
				if err := tr.Validate(); err != nil {
					t.Fatalf("after Delete(%d): %v", k, err)
				}
			}
		}
	}
	for k := uint64(1); k <= n; k++ {
		tr.Delete(g, k)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateSemantics(t *testing.T) {
	tr, g := newWithGuard(t, "rcu")
	if !tr.Insert(g, 5) || tr.Insert(g, 5) {
		t.Fatal("duplicate insert semantics")
	}
	if !tr.Delete(g, 5) || tr.Delete(g, 5) {
		t.Fatal("duplicate delete semantics")
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	tr, g := newWithGuard(t, "nbr")
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(13))
	ops := 12000
	if testing.Short() {
		ops = 2000
	}
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(400)) + 1
		switch rng.Intn(3) {
		case 0:
			if tr.Insert(g, k) == model[k] {
				t.Fatalf("op %d: Insert(%d) disagrees with model", i, k)
			}
			model[k] = true
		case 1:
			if tr.Delete(g, k) != model[k] {
				t.Fatalf("op %d: Delete(%d) disagrees with model", i, k)
			}
			delete(model, k)
		default:
			if tr.Contains(g, k) != model[k] {
				t.Fatalf("op %d: Contains(%d) disagrees with model", i, k)
			}
		}
		if i%1000 == 999 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRetireTrafficIsCopyOnWrite(t *testing.T) {
	// Every successful update must retire at least one node (the replaced
	// leaf) — the property that makes the ABTree an SMR stress test.
	tr, g := newWithGuard(t, "debra")
	sch, err := catalog.NewSchemeFor("debra", tr.Arena(), 1, catalog.DefaultSchemeConfig(), ds.DefaultRequirements)
	if err != nil {
		t.Fatal(err)
	}
	g = sch.Guard(0)
	for k := uint64(1); k <= 200; k++ {
		tr.Insert(g, k)
	}
	before := sch.Stats().Retired
	for k := uint64(1); k <= 200; k++ {
		tr.Delete(g, k)
	}
	after := sch.Stats().Retired
	if after-before < 200 {
		t.Fatalf("only %d retires for 200 deletes; leaves are not copy-on-write", after-before)
	}
}
