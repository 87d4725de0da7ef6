package nbr_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"nbr"
)

// TestDomainLifecycle exercises the public API end to end for every
// structure × scheme cell the applicability matrix admits: lease churn with
// more goroutines than slots, operations through leases, drain to
// Retired == Freed, and validation.
func TestDomainLifecycle(t *testing.T) {
	for _, structure := range []string{"lazylist", "harris", "dgt"} {
		for _, scheme := range []string{"nbr+", "nbr", "hp", "debra"} {
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				d, err := nbr.New(nbr.Options{
					Structure: structure,
					RuntimeOptions: nbr.RuntimeOptions{
						Scheme:     scheme,
						MaxThreads: 6,
						BagSize:    128,
						Threshold:  48,
					},
				})
				if err != nil {
					if scheme == "hp" { // Table 1 rejects some HP cells
						t.Skip(err)
					}
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for w := 0; w < 10; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for s := 0; s < 6; s++ {
							l, err := d.Acquire()
							if errors.Is(err, nbr.ErrNoLease) {
								runtime.Gosched()
								s--
								continue
							}
							if err != nil {
								t.Error(err)
								return
							}
							for i := 0; i < 50; i++ {
								key := uint64(w*50+i)%96 + 1
								d.Insert(l, key)
								if i%2 == 0 {
									d.Delete(l, key)
								}
							}
							l.Release()
						}
					}(w)
				}
				wg.Wait()
				if err := d.Drain(); err != nil {
					t.Fatal(err)
				}
				st := d.Stats()
				if scheme != "none" && st.Retired != st.Freed {
					t.Fatalf("leaked records: retired %d != freed %d", st.Retired, st.Freed)
				}
				if b := d.GarbageBound(); b != nbr.Unbounded && st.Garbage() > uint64(b) {
					t.Fatalf("garbage %d exceeds declared bound %d", st.Garbage(), b)
				}
				if err := d.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDomainRejectsTable1Violations pins the public constructor to the
// paper's applicability matrix.
func TestDomainRejectsTable1Violations(t *testing.T) {
	if _, err := nbr.New(nbr.Options{Structure: "hmlist-norestart", RuntimeOptions: nbr.RuntimeOptions{Scheme: "nbr+"}}); err == nil {
		t.Fatal("hmlist-norestart under NBR must be rejected (Requirement 12)")
	}
	if _, err := nbr.New(nbr.Options{Structure: "abtree", RuntimeOptions: nbr.RuntimeOptions{Scheme: "hp"}}); err == nil {
		t.Fatal("abtree under HP must be rejected (no reachability validation)")
	}
}

// TestDomainLeaseExhaustion pins the full-registry behaviour: MaxThreads
// concurrent holders, the next Acquire fails with ErrNoLease, and a release
// makes a slot available again.
func TestDomainLeaseExhaustion(t *testing.T) {
	d, err := nbr.New(nbr.Options{RuntimeOptions: nbr.RuntimeOptions{MaxThreads: 8}})
	if err != nil {
		t.Fatal(err)
	}
	leases := make([]*nbr.Lease, 0, 8)
	for i := 0; i < 8; i++ {
		l, err := d.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	if _, err := d.Acquire(); !errors.Is(err, nbr.ErrNoLease) {
		t.Fatalf("9th acquire: got %v, want ErrNoLease", err)
	}
	leases[3].Release()
	l, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	for _, l := range leases[:3] {
		l.Release()
	}
	for _, l := range leases[4:] {
		l.Release()
	}
}
