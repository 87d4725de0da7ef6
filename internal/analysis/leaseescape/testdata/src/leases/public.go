package leases

import (
	"context"

	"nbr"
)

// The public API's lease is held to the same affinity rule as the smr
// lease. These are the escapes examples/quickstart/testdata/badusage.go
// documents, written against a Domain.

var stashed *nbr.Lease

// publicPublish parks a Domain lease in a package-level variable.
func publicPublish(d *nbr.Domain) {
	lease, _ := d.Acquire()
	stashed = lease // want "lease stored to a package-level variable"
}

// publicCapture lets a go'd closure operate on the set under the
// enclosing goroutine's lease.
func publicCapture(d *nbr.Domain) {
	lease, _ := d.Acquire()
	go func() {
		d.Insert(lease, 2) // want "lease captured by a new goroutine"
	}()
}

// publicWith is the clean pattern: the With envelope scopes the lease to
// one callback on one goroutine.
func publicWith(d *nbr.Domain) error {
	return d.With(context.Background(), func(lease *nbr.Lease) error {
		d.Insert(lease, 3)
		return nil
	})
}
