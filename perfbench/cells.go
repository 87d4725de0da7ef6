package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"nbr"
	"nbr/internal/core"
	"nbr/internal/mem"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// This file holds the unit-cost cells of the per-layer ledger: each times
// one layer's exported functions in isolation, at this benchmark's shape
// (N = workers threads, the runtime's reservation width R).

// rec stands in for a structure's record in the pool cells: four words, the
// size of a dgt node.
type rec struct{ key, left, right, next uint64 }

// bagSize is the default NBR+ HiWatermark the runtime runs with
// (RuntimeOptions.BagSize left at zero): one free burst frees about a bag.
const bagSize = 1024

// cellReps is how many timed repetitions a cell runs; it reports the median.
const cellReps = 7

// measure calibrates f to take at least 20 ms per repetition, then returns
// the median over cellReps repetitions of the time per unit. f(n) performs n
// iterations and returns the time to charge for them; each iteration is
// units units of work.
func measure(units int, f func(n int) time.Duration) float64 {
	n := 1
	for f(n) < 20*time.Millisecond {
		n *= 2
	}
	per := make([]float64, cellReps)
	for i := range per {
		per[i] = float64(f(n).Nanoseconds()) / float64(n*units)
	}
	return median(per)
}

func timed(n int, body func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		body()
	}
	return time.Since(t0)
}

// bracketCell times core's read-phase bracket: BeginRead, R Reserve calls,
// EndRead, with no signal pending.
func bracketCell(r int) float64 {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: workers})
	g := core.New(pool, workers, core.Config{Plus: true, Slots: r}).Guard(0)
	ps := make([]mem.Ptr, r)
	for i := range ps {
		ps[i], _ = pool.Alloc(0)
	}
	return measure(1, func(n int) time.Duration {
		return timed(n, func() {
			g.BeginRead()
			for i, p := range ps {
				g.Reserve(i, p)
			}
			g.EndRead()
		})
	})
}

// scanCell times one reservation collection over N·R occupied slots, the
// snapshot every NBR+ reclamation takes before sweeping its bag.
func scanCell(r int) float64 {
	slots := make([]smr.Pad64, workers*r)
	for i := range slots {
		slots[i].Store(uint64(len(slots)-i) << 8)
	}
	active := sigsim.FullActiveSet(workers)
	ss := smr.NewScanSet(len(slots))
	return measure(1, func(n int) time.Duration {
		return timed(n, func() { ss.CollectRows(slots, r, active) })
	})
}

// roundtripCell times SignalAll from one goroutine to a peer spinning in a
// read phase, through the peer's Poll neutralizing it, to the peer being
// restartable again: one neutralization round trip across the 2 goroutines.
func roundtripCell() float64 {
	g := sigsim.NewGroup(workers, sigsim.Config{})
	var phases atomic.Uint64 // read phases the peer has entered
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			func() {
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(sigsim.Neutralized); !ok {
							panic(p)
						}
					}
				}()
				g.SetRestartable(1)
				phases.Add(1)
				for !stop.Load() {
					g.Poll(1)
				}
				g.ClearRestartable(1)
			}()
		}
	}()
	// Post only while the peer is inside a read phase: SetRestartable
	// absorbs signals that arrive before it. After the k-th post the peer
	// has restarted once it enters phase k+1.
	var sent uint64
	for phases.Load() == 0 {
	}
	ns := measure(1, func(n int) time.Duration {
		return timed(n, func() {
			g.SignalAll(0)
			sent++
			for phases.Load() <= sent {
			}
		})
	})
	stop.Store(true)
	<-done
	return ns
}

// freeBurstCell times the free path of one reclamation burst: a bag of
// records returned through the hub's FreeBatch (routing, then the pool's
// batched free), per record. Re-allocating the bag is not timed.
func freeBurstCell() float64 {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: workers})
	hub := mem.NewHub(workers)
	hub.Attach(0, pool)
	hub.SizeCache(0, bagSize)
	hs := make([]mem.Ptr, bagSize)
	return measure(bagSize, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			for j := range hs {
				hs[j], _ = pool.Alloc(0)
			}
			t0 := time.Now()
			hub.FreeBatch(0, hs)
			d += time.Since(t0)
		}
		return d
	})
}

// acquireReleaseCell times Acquire + Release on a runtime with the
// workload's structures and capacity = workers, so every acquire after the
// first two recycles a quarantined slot.
func acquireReleaseCell(w workload) (float64, error) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: workers})
	if err != nil {
		return 0, err
	}
	for _, s := range w.sets {
		if _, err := rt.NewSet(s.structure); err != nil {
			return 0, err
		}
	}
	var failed error
	ns := measure(1, func(n int) time.Duration {
		return timed(n, func() {
			l, err := rt.Acquire()
			if err != nil {
				failed = err
				return
			}
			l.Release()
		})
	})
	if failed != nil {
		return 0, fmt.Errorf("acquire/release cell: %w", failed)
	}
	return ns, nil
}
