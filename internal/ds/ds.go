// Package ds defines the common interface of the concurrent set data
// structures used in the paper's evaluation, plus shared helpers. Every
// structure stores uint64 keys in (MinKey, MaxKey) — the bounds are sentinel
// values — and is parameterized per call by an smr.Guard, so the same
// implementation runs under every reclamation scheme exactly as in setbench.
package ds

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// MinKey and MaxKey bound the usable key space; both are sentinels.
const (
	MinKey uint64 = 0
	MaxKey uint64 = ^uint64(0)
)

// Requirements declares the per-thread announcement widths a data structure
// needs from its reclamation scheme: Slots is the number of Protect slots
// (hazard-pointer/era announcements), Reservations the number of Reserve
// slots (NBR's R). Every scan a scheme performs walks N·width entries, so a
// structure declaring its true width — the paper's structures need at most
// 3 reservations — shrinks every reclamation scan in the system.
//
// Threshold declares the structure's preferred retire-buffer depth for the
// threshold-triggered schemes (hp/he/ibr/qsbr/rcu), expressed per peer
// thread: the constructed scheme scans at N·Threshold records. It exists to
// decouple scan frequency from Slots — hp's own default is 2·N·Slots, so a
// structure declaring its true (narrow) protection width would otherwise
// drag the scan cadence up with it. 0 keeps each scheme's default.
type Requirements struct {
	Slots        int
	Reservations int
	Threshold    int
}

// Max returns the smallest widths both r and o fit under: the field-wise
// maximum. Folding it over several structures sizes one scheme for all of
// them.
func (r Requirements) Max(o Requirements) Requirements {
	return Requirements{
		Slots:        max(r.Slots, o.Slots),
		Reservations: max(r.Reservations, o.Reservations),
		Threshold:    max(r.Threshold, o.Threshold),
	}
}

// DefaultThreshold is the per-peer retire-buffer depth the harness's
// structures declare: 2 records per default hazard slot, matching the scan
// cadence hp's 2·N·Slots default produced before Slots narrowed per-DS.
const DefaultThreshold = 16

// DefaultRequirements is the conservative width used when no structure is
// known at scheme construction: 8 hazard slots (the HP default) and 4
// reservations (one more than any structure in the harness needs).
// Threshold stays 0 (each scheme's own default), which at 8 slots coincides
// with DefaultThreshold·N.
var DefaultRequirements = Requirements{Slots: 8, Reservations: 4}

// NewRetireScratch builds the per-thread RetireBatch scratch buffers the
// subtree-unlinking structures hand to Guard.RetireBatch. Each buffer is
// pre-sized to a full cache line of handles: a smaller backing array would
// land in a sub-line size class and pack several threads' scratches into one
// line, false-sharing every unlink's writes. A handoff that never outgrows
// the capacity is alloc-free and never writes the shared slice header back.
func NewRetireScratch(threads int) [][]mem.Ptr {
	bufs := make([][]mem.Ptr, threads)
	for i := range bufs {
		bufs[i] = make([]mem.Ptr, 0, 8)
	}
	return bufs
}

// Set is an ordered concurrent set. Len and Validate are quiescent
// operations: callers must ensure no concurrent mutators.
type Set interface {
	// Contains reports key membership.
	Contains(g smr.Guard, key uint64) bool
	// Insert adds key, reporting false if it was already present.
	Insert(g smr.Guard, key uint64) bool
	// Delete removes key, reporting false if it was absent.
	Delete(g smr.Guard, key uint64) bool
	// Len counts the keys currently in the set (quiescent).
	Len() int
	// Validate checks structural invariants (quiescent), returning a
	// descriptive error on corruption.
	Validate() error
	// Requirements declares the announcement widths this structure needs
	// from its reclamation scheme; schemes are constructed at exactly
	// these widths, so the harness and correctness suites always run the
	// configuration the structure declares.
	Requirements() Requirements
}
