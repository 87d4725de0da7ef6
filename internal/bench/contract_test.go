package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nbr/internal/catalog"
)

// The contract tests feed synthetic outcomes to the cells of the real table:
// a healthy outcome must pass every cell, and each violation kind must be
// reported by exactly the cells that carry its contract — so dropping a
// check from the table fails the test that names it.

// healthy returns an outcome keeping every contract of c.
func healthy(c Cell) Outcome {
	o := Outcome{Bound: 100, GarbagePeak: 100, Retired: 50, Freed: 50, PerRecord: 0.01, VersusPerRecord: 1}
	if isStall(c) {
		o.Reaped = 3
	}
	return o
}

func isStall(c Cell) bool   { return strings.HasSuffix(c.Name, "/stall") }
func isRuntime(c Cell) bool { return strings.HasPrefix(c.Name, "runtime/") }
func isDrained(c Cell) bool { return isRuntime(c) || strings.HasPrefix(c.Name, "resize/") }

// expectViolation breaks one field of a healthy outcome for every cell that
// want selects and requires exactly the named check to report it.
func expectViolation(t *testing.T, check string, want func(Cell) bool, breakIt func(*Outcome)) {
	t.Helper()
	n := 0
	for _, c := range Contracts {
		if !want(c) {
			continue
		}
		n++
		o := healthy(c)
		breakIt(&o)
		v := c.Violations(o)
		if len(v) != 1 || !strings.HasPrefix(v[0], check+": ") {
			t.Errorf("%s: want one %q violation, got %q", c.Name, check, v)
		}
	}
	if n == 0 {
		t.Fatalf("no cell carries the %q contract", check)
	}
}

func TestContractTableShape(t *testing.T) {
	if len(Contracts) != 13 {
		t.Fatalf("contract table has %d cells, want 13", len(Contracts))
	}
	seen := map[string]bool{}
	for _, c := range Contracts {
		if c.Name == "" || c.Params == "" || c.Run == nil || len(c.Checks) == 0 {
			t.Fatalf("incomplete cell %+v", c)
		}
		if seen[c.Name] {
			t.Fatalf("duplicate cell %q", c.Name)
		}
		if c.Versus != "" && !seen[c.Versus] {
			t.Fatalf("%s compares against %q, which is not an earlier cell", c.Name, c.Versus)
		}
		seen[c.Name] = true
		if v := c.Violations(healthy(c)); len(v) != 0 {
			t.Fatalf("%s flags a healthy outcome: %q", c.Name, v)
		}
	}
}

func TestContractBound(t *testing.T) {
	expectViolation(t, "bound", func(Cell) bool { return true },
		func(o *Outcome) { o.GarbagePeak = uint64(o.Bound) + 1 })
}

func TestContractDrain(t *testing.T) {
	expectViolation(t, "drain", isDrained, func(o *Outcome) { o.Freed = o.Retired - 1 })
}

func TestContractStagedFrees(t *testing.T) {
	expectViolation(t, "staged-frees", isRuntime, func(o *Outcome) { o.Staged = 1 })
}

func TestContractFallback(t *testing.T) {
	expectViolation(t, "fallback", isRuntime, func(o *Outcome) { o.Fallbacks = 1 })
}

func TestContractStallReapedNothing(t *testing.T) {
	expectViolation(t, "stall-reaps", isStall, func(o *Outcome) { o.Reaped = 0 })
}

func TestContractReapOutsideStall(t *testing.T) {
	expectViolation(t, "no-reaps", func(c Cell) bool { return isRuntime(c) && !isStall(c) },
		func(o *Outcome) { o.Reaped = 1 })
}

func TestContractSegmentRatio(t *testing.T) {
	ratioCell := func(c Cell) bool { return c.Versus != "" }
	expectViolation(t, "segment-8x", ratioCell, func(o *Outcome) { o.PerRecord = o.VersusPerRecord / 7.9 })
	expectViolation(t, "segment-8x", ratioCell, func(o *Outcome) { o.PerRecord = 0 })
}

// TestContractRunnerReports drives RunContracts over synthetic cells: one
// line per cell, the Versus figure handed to the comparing cell, and every
// violation (with its flight-recorder tail) in the output and the error.
func TestContractRunnerReports(t *testing.T) {
	fixed := func(o Outcome) func(time.Duration, catalog.SchemeConfig) (Outcome, error) {
		return func(time.Duration, catalog.SchemeConfig) (Outcome, error) { return o, nil }
	}
	cells := []Cell{
		{Name: "base", Params: "p", Run: fixed(Outcome{PerRecord: 1, Metrics: "m1"}), Checks: []Check{checkBound}},
		{Name: "seg", Params: "p", Run: fixed(Outcome{PerRecord: 0.5, Metrics: "m2", Tail: "TAIL\n"}),
			Versus: "base", Checks: []Check{checkSegment}},
	}
	var out bytes.Buffer
	err := RunContracts(&out, cells, 0, catalog.SchemeConfig{})
	if err == nil || !strings.Contains(err.Error(), "seg segment-8x") {
		t.Fatalf("want the segment violation reported, got %v", err)
	}
	text := out.String()
	for _, want := range []string{"base", "ok", "m1", "seg", "VIOLATED", "m2", "per-node 1.0000, segment 0.5000", "TAIL"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	cells[1].Run = fixed(Outcome{PerRecord: 0.1})
	if err := RunContracts(&out, cells, 0, catalog.SchemeConfig{}); err != nil {
		t.Fatalf("10x segment cut flagged: %v", err)
	}
}
