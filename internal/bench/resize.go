package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nbr/internal/catalog"
	"nbr/internal/ds/hashmap"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// This file is the resize-burst cell: the A/B measurement behind the segment
// retirement fast path. An insert-only storm on the resizable hash map makes
// the retire stream consist purely of whole bucket arrays — the workload
// RetireSegment exists for — and the same storm runs twice, once with arrays
// retired as one segment handle and once with the old array dissolved and
// every cell retired individually. The comparison is counter ratios
// (stamps/record, scans/record), not timings, so it is host-independent: on
// any machine the per-node mode pays one scheme-side stamp per cell and a
// scan cadence proportional to cells, while the segment mode pays one stamp
// per array.

// ResizeBurstWorkload configures one resize-burst run.
type ResizeBurstWorkload struct {
	// Scheme names the reclamation scheme. Per-node mode is only safe under
	// the grace-period schemes (an interval scheme sees batch-carved cells as
	// born at era 0, which is conservative; an epoch scheme needs no per-cell
	// announcements); RunResizeBurst rejects per-node runs under hp and the
	// NBR family, whose per-record protection the mode deliberately skips.
	Scheme  string
	Threads int
	// KeysPerThread is each thread's disjoint insert range; total inserts
	// drive the doubling cascade.
	KeysPerThread int
	// PerNode selects the dissolve-and-retire-individually baseline.
	PerNode bool
	Cfg     catalog.SchemeConfig
}

// ResizeBurstResult is the outcome of one run, all counters read at the
// post-drain quiescent point.
type ResizeBurstResult struct {
	Resizes     uint64
	Stats       smr.Stats
	Bound       int
	GarbagePeak uint64
	Drained     bool // Retired == Freed after the drain
}

// BoundExceeded reports a live garbage-bound contract violation.
func (r ResizeBurstResult) BoundExceeded() bool {
	return r.Bound != smr.Unbounded && r.GarbagePeak > uint64(r.Bound)
}

// perNodeSafe lists the schemes the dissolve baseline may run under.
var perNodeSafe = map[string]bool{
	"ibr": true, "he": true, "qsbr": true, "rcu": true, "debra": true, "none": true,
}

// RunResizeBurst executes one resize-burst cell.
func RunResizeBurst(w ResizeBurstWorkload) (ResizeBurstResult, error) {
	if w.PerNode && !perNodeSafe[w.Scheme] {
		return ResizeBurstResult{}, fmt.Errorf(
			"bench: per-node resize baseline is unsafe under %s (no per-cell protection)", w.Scheme)
	}
	mcfg := mem.Config{MaxThreads: w.Threads}
	var m *hashmap.Map
	if w.PerNode {
		m = hashmap.NewPerNodeWith(mcfg)
	} else {
		m = hashmap.NewWith(mcfg)
	}
	sch, err := catalog.NewSchemeFor(w.Scheme, m.Arena(), w.Threads, w.Cfg, m.Requirements())
	if err != nil {
		return ResizeBurstResult{}, err
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

	var wg sync.WaitGroup
	for tid := 0; tid < w.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := sch.Guard(tid)
			base := uint64(tid) * 1_000_000
			for i := 0; i < w.KeysPerThread; i++ {
				m.Insert(g, base+uint64(i)+1)
			}
		}(tid)
	}
	wg.Wait()
	stop.Store(true)
	<-samplerDone

	res := ResizeBurstResult{Resizes: m.Resizes()}
	if g := sch.Stats().Garbage(); g > peak.Load() {
		peak.Store(g)
	}

	// Drain to quiescence. NBR reservation rows persist past EndOp, so each
	// thread first runs one search on the current table, re-pointing its rows
	// at live records (the installed array's handle and unmarked dummies) and
	// unpinning every array the storm retired.
	for tid := 0; tid < w.Threads; tid++ {
		m.Contains(sch.Guard(tid), 1<<40)
	}
	if d, ok := sch.(smr.Drainer); ok && w.Scheme != "none" {
		for round := 0; round < 500; round++ {
			if st := sch.Stats(); st.Retired == st.Freed {
				break
			}
			for tid := 0; tid < w.Threads; tid++ {
				d.Drain(tid)
			}
		}
	}

	res.Stats = sch.Stats()
	res.Bound = sch.GarbageBound()
	res.GarbagePeak = peak.Load()
	res.Drained = res.Stats.Retired == res.Stats.Freed
	if err := m.Validate(); err != nil {
		return res, fmt.Errorf("bench: hash map invalid after resize burst: %w", err)
	}
	return res, nil
}
