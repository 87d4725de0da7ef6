package dgtbst_test

import (
	"math/rand"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/ds/dgtbst"
	"nbr/internal/dstest"
	"nbr/internal/smr"
)

func factory() dstest.Factory {
	return dstest.Factory{
		Name: "dgt",
		New: func(threads int) dstest.Instance {
			tr := dgtbst.New(threads)
			return dstest.Instance{Set: tr, Arena: tr.Arena()}
		},
	}
}

func TestMatrix(t *testing.T) { dstest.RunAll(t, factory()) }

func newWithGuard(t *testing.T, scheme string) (*dgtbst.Tree, smr.Guard) {
	t.Helper()
	tr := dgtbst.New(1)
	s, err := catalog.NewSchemeFor(scheme, tr.Arena(), 1, catalog.DefaultSchemeConfig(), ds.DefaultRequirements)
	if err != nil {
		t.Fatal(err)
	}
	return tr, s.Guard(0)
}

func TestEmptyTree(t *testing.T) {
	tr, g := newWithGuard(t, "nbr+")
	if tr.Len() != 0 || tr.Contains(g, 7) || tr.Delete(g, 7) {
		t.Fatal("fresh tree must be empty")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteShapes(t *testing.T) {
	tr, g := newWithGuard(t, "nbr+")
	keys := []uint64{50, 25, 75, 10, 30, 60, 90, 5, 15}
	for _, k := range keys {
		if !tr.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after Insert(%d): %v", k, err)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Delete in an order that exercises leaf/router splices at every depth.
	for i, k := range []uint64{5, 90, 25, 50, 15, 10, 30, 60, 75} {
		if !tr.Delete(g, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
		if tr.Contains(g, k) {
			t.Fatalf("deleted key %d still present", k)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after Delete(%d): %v", k, err)
		}
		if tr.Len() != len(keys)-i-1 {
			t.Fatalf("Len = %d after %d deletes", tr.Len(), i+1)
		}
	}
}

func TestSingleKeyLifecycle(t *testing.T) {
	tr, g := newWithGuard(t, "debra")
	for i := 0; i < 1500; i++ {
		if !tr.Insert(g, 99) || tr.Insert(g, 99) {
			t.Fatalf("cycle %d: insert semantics", i)
		}
		if !tr.Delete(g, 99) || tr.Delete(g, 99) {
			t.Fatalf("cycle %d: delete semantics", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	tr, g := newWithGuard(t, "nbr")
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(200)) + 1
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
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
