package catalog

import (
	"bytes"
	"strings"
	"testing"

	"nbr/internal/ds"
)

func TestNewSchemeAllNames(t *testing.T) {
	inst, err := NewDS("lazylist", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames {
		s, err := NewSchemeFor(name, inst.Arena, 2, DefaultSchemeConfig(), ds.DefaultRequirements)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("scheme %q reports name %q", name, s.Name())
		}
	}
	if _, err := NewSchemeFor("bogus", inst.Arena, 2, DefaultSchemeConfig(), ds.DefaultRequirements); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestNewDSAllNames(t *testing.T) {
	for _, name := range DSNames {
		inst, err := NewDS(name, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.Set == nil || inst.Arena == nil || inst.MemStats == nil {
			t.Fatalf("%s: incomplete instance", name)
		}
		if err := inst.Set.Validate(); err != nil {
			t.Fatalf("%s: fresh instance invalid: %v", name, err)
		}
	}
	if _, err := NewDS("bogus", 2); err == nil {
		t.Fatal("unknown structure must error")
	}
}

func TestTable1Coverage(t *testing.T) {
	for _, d := range DSNames {
		for _, s := range SchemeNames {
			if _, ok := Table1Verdict(d, s); !ok {
				t.Fatalf("no Table 1 verdict for %s/%s", d, s)
			}
		}
	}
}

func TestTable1KnownVerdicts(t *testing.T) {
	cases := []struct {
		ds, scheme string
		ok         bool
	}{
		{"lazylist", "nbr+", true},
		{"lazylist", "hp", false},
		{"hmlist-norestart", "nbr", false},
		{"hmlist", "nbr", true},
		{"harris", "hp", true},
		{"dgt", "ibr", false},
		{"abtree", "he", false},
		{"abtree", "debra", true},
	}
	for _, c := range cases {
		v, ok := Table1Verdict(c.ds, c.scheme)
		if !ok || v.OK != c.ok {
			t.Fatalf("Table1Verdict(%s, %s) = %+v, want OK=%v", c.ds, c.scheme, v, c.ok)
		}
	}
}

func TestRunnableExceptions(t *testing.T) {
	// The paper's E1 runs HP on the lazy list and DGT despite Table 1.
	if !Runnable("lazylist", "hp") || !Runnable("dgt", "hp") {
		t.Fatal("benchmark-mode exceptions missing")
	}
	if Runnable("hmlist-norestart", "nbr+") {
		t.Fatal("hmlist-norestart must stay rejected for NBR")
	}
	if Runnable("abtree", "hp") {
		t.Fatal("abtree has no benchmark-mode HP exception")
	}
}

func TestPrintTable1(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	out := buf.String()
	for _, want := range []string{"lazylist", "abtree", "hmlist-norestart", "no*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q", want)
		}
	}
}
