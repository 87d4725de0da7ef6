package derefs

import "nbr"

// publicUseAfterRelease operates on a Domain's set under a lease it has
// already given back: the shape examples/quickstart/testdata/badusage.go
// documents.
func publicUseAfterRelease(d *nbr.Domain) {
	lease, _ := d.Acquire()
	d.Insert(lease, 1)
	lease.Release()
	d.Insert(lease, 4) // want "use of lease lease after Release"
}

// publicRebound is clean: a fresh lease is acquired before the next use.
func publicRebound(d *nbr.Domain) bool {
	lease, _ := d.Acquire()
	lease.Release()
	lease, _ = d.Acquire()
	defer lease.Release()
	return d.Contains(lease, 1)
}
