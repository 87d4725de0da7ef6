package dgtbst_test

import (
	"testing"
	"testing/quick"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/ds/dgtbst"
)

// TestQuickSetSemantics randomizes operations against a map model under a
// tiny limbo bag (internal routers and leaves recycle constantly).
func TestQuickSetSemantics(t *testing.T) {
	tr := dgtbst.New(1)
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 64
	s, err := catalog.NewSchemeFor("nbr+", tr.Arena(), 1, cfg, ds.DefaultRequirements)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guard(0)
	model := map[uint64]bool{}
	f := func(key uint16, op uint8) bool {
		k := uint64(key%128) + 1
		switch op % 3 {
		case 0:
			ok := tr.Insert(g, k) == !model[k]
			model[k] = true
			return ok
		case 1:
			ok := tr.Delete(g, k) == model[k]
			delete(model, k)
			return ok
		default:
			return tr.Contains(g, k) == model[k]
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range model {
		if p {
			want++
		}
	}
	if tr.Len() != want {
		t.Fatalf("Len = %d, model = %d", tr.Len(), want)
	}
}

// TestDeleteRetiresRouterAndLeaf pins DGT's retire signature: every
// successful delete retires exactly two records (router + leaf), every
// insert retires none.
func TestDeleteRetiresRouterAndLeaf(t *testing.T) {
	tr := dgtbst.New(1)
	s, err := catalog.NewSchemeFor("debra", tr.Arena(), 1, catalog.DefaultSchemeConfig(), ds.DefaultRequirements)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guard(0)
	for k := uint64(1); k <= 64; k++ {
		tr.Insert(g, k)
	}
	if got := s.Stats().Retired; got != 0 {
		t.Fatalf("inserts retired %d records", got)
	}
	for k := uint64(1); k <= 64; k++ {
		tr.Delete(g, k)
	}
	if got := s.Stats().Retired; got != 128 {
		t.Fatalf("64 deletes retired %d records, want 128", got)
	}
}
