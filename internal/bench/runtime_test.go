package bench

import (
	"testing"
	"time"

	"nbr/internal/catalog"
)

// TestRunRuntimeCell pins the shared-runtime measurement cell: it must
// complete sessions, hold the aggregated bound, never hit the unaged-slot
// fallback, and drain the shared bags to Retired == Freed.
func TestRunRuntimeCell(t *testing.T) {
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 256
	r, err := RunRuntime(RuntimeWorkload{
		Structures: []string{"lazylist", "harris", "dgt"},
		Scheme:     "nbr+",
		Slots:      4,
		Workers:    6,
		KeyRange:   512,
		SessionOps: 32,
		Duration:   150 * time.Millisecond,
		Cfg:        cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Sessions == 0 {
		t.Fatalf("no progress: ops=%d sessions=%d", r.Ops, r.Sessions)
	}
	if r.BoundExceeded() {
		t.Fatalf("aggregated bound violated: peak %d > bound %d", r.GarbagePeak, r.Bound)
	}
	if r.Fallbacks != 0 {
		t.Fatalf("unaged-slot fallback used %d times; forced rounds must cover the churn", r.Fallbacks)
	}
	if !r.Drained {
		t.Fatalf("shared bags leaked: retired %d != freed %d", r.Stats.Retired, r.Stats.Freed)
	}
}

// TestRunRuntimeRejectsTable1 pins the cell's gatekeeping.
func TestRunRuntimeRejectsTable1(t *testing.T) {
	_, err := RunRuntime(RuntimeWorkload{
		Structures: []string{"abtree"},
		Scheme:     "hp",
		Slots:      2, Workers: 2,
		Duration: 10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("abtree under hp must be rejected")
	}
}

// TestStallCellReapsWedges pins the holder-death cell: wedged holders are
// reaped by the lease watchdog, each zombie's late release is a counted
// no-op, and the bound and drain-to-zero contracts hold through the deaths.
// It stays out of the -race job while the watchdog's cache drain races the
// zombie's earlier allocations (see ROADMAP).
func TestStallCellReapsWedges(t *testing.T) {
	r, err := RunRuntime(RuntimeWorkload{
		Structures: []string{"lazylist", "dgt"},
		Scheme:     "nbr+",
		Slots:      4,
		Workers:    6,
		KeyRange:   512,
		SessionOps: 32,
		Duration:   100 * time.Millisecond,
		Cfg:        catalog.DefaultSchemeConfig(),
		Stall:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Reaped == 0 || r.RevokedReleases != r.Reaped {
		t.Fatalf("reaped %d wedges, %d late releases; want > 0 and equal", r.Reaped, r.RevokedReleases)
	}
	if r.BoundExceeded() || r.Fallbacks != 0 || !r.Drained {
		t.Fatalf("contracts broken under holder deaths: peak %d bound %d, fallbacks %d, retired %d freed %d staged %d",
			r.GarbagePeak, r.Bound, r.Fallbacks, r.Stats.Retired, r.Stats.Freed, r.Staged)
	}
}
