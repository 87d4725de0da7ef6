// Quickstart: protect a concurrent ordered set with NBR+ in three steps,
// using only the public nbr package.
//
//  1. create a Domain — an nbr.Runtime (reclamation scheme + thread-lease
//     registry) with exactly one set attached;
//  2. each worker goroutine acquires a Lease — no hand-managed thread ids;
//  3. operate on the set under the lease (domain.Insert(lease, key)) and
//     release it — retired records are reclaimed behind the scenes, with
//     bounded garbage even if a thread stalls, and a departing thread leaks
//     nothing.
//
// The calls are the Runtime's and the Set's own, so growing past one
// structure changes nothing but construction: a service hosting several
// structures over one lease registry — one Lease covering all of them per
// request — starts from nbr.NewRuntime and attaches structures with NewSet;
// see examples/server for that regime over real HTTP.
//
// What nbrvet would catch here: the protocol mistakes this example is
// careful not to make are all static findings — stashing the lease in a
// package variable or handing it to another goroutine (leaseescape; a lease
// is goroutine-affine), or touching it after Release (guardderef). See
// testdata/badusage.go for the flagged versions of this file's patterns,
// and DESIGN.md §13 for the full rule set.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"nbr"
)

func main() {
	const workers = 4

	// 1. The domain: an NBR+-protected lazy list.
	domain, err := nbr.New(nbr.Options{
		Structure:      "lazylist",
		RuntimeOptions: nbr.RuntimeOptions{Scheme: "nbr+", BagSize: 512},
	})
	if err != nil {
		panic(err)
	}

	// 2+3. Each worker leases a thread slot and churns its own key stripe.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lease, err := domain.Acquire()
			if err != nil {
				panic(err)
			}
			defer lease.Release()
			for i := 0; i < 20_000; i++ {
				key := uint64(i*workers+w) % 1000 * 2 // even keys only
				if key == 0 {
					key = 2
				}
				domain.Insert(lease, key)
				if i%3 == 0 {
					domain.Delete(lease, key)
				}
			}
		}(w)
	}
	wg.Wait()

	probe, err := domain.Acquire()
	if err != nil {
		panic(err)
	}
	fmt.Printf("set size after churn: %d\n", domain.Len())
	fmt.Printf("contains(2)=%v contains(3)=%v\n", domain.Contains(probe, 2), domain.Contains(probe, 3))
	probe.Release()

	if err := domain.Drain(); err != nil {
		panic(err)
	}
	st := domain.Stats()
	ms := domain.MemStats()
	fmt.Printf("retired=%d freed=%d garbage=%d (declared bound: %d)\n",
		st.Retired, st.Freed, st.Garbage(), domain.GarbageBound())
	fmt.Printf("signals sent=%d, read-phase restarts=%d\n", st.Signals, st.Neutralized)
	fmt.Printf("live records=%d (%.1f KiB)\n", ms.Live, float64(ms.LiveBytes)/1024)

	if err := domain.Validate(); err != nil {
		panic(err)
	}
	fmt.Println("structure validated: ok")
}
