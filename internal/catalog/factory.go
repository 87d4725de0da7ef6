// Package catalog builds the reproduction's reclamation schemes and data
// structures by name: the scheme factory, the structure factory with its
// announcement-width registry, and the paper's applicability matrix
// (Table 1). It is a leaf under the public nbr package and the harnesses —
// nbr, internal/bench, internal/dstest and the cmds all construct through
// it — so the public package resolves names without importing the
// experiment harness.
package catalog

import (
	"fmt"

	"nbr/internal/core"
	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
	"nbr/internal/smr/debra"
	"nbr/internal/smr/he"
	"nbr/internal/smr/hp"
	"nbr/internal/smr/ibr"
	"nbr/internal/smr/leaky"
	"nbr/internal/smr/qsbr"
	"nbr/internal/smr/rcu"
)

// SchemeNames lists every reclamation scheme in the harness, in the order
// the paper's figures present them.
var SchemeNames = []string{"none", "qsbr", "rcu", "debra", "ibr", "hp", "he", "nbr", "nbr+"}

// SchemeConfig carries every scheme knob the experiments sweep.
type SchemeConfig struct {
	// BagSize is the NBR limbo-bag HiWatermark.
	BagSize int
	// LoFraction positions the NBR+ LoWatermark.
	LoFraction float64
	// ScanFreq amortizes the NBR+ announceTS scan.
	ScanFreq int
	// Slots is the NBR reservation capacity per thread; 0 (the default)
	// adopts the data structure's declared width (ds.Requirements), so the
	// N·R scan shrinks to what the structure actually reserves.
	Slots int
	// SendSpin and HandleSpin are the simulated signal costs.
	SendSpin, HandleSpin int
	// Threshold is the bag limit of the epoch/pointer schemes
	// (qsbr/rcu/hp/ibr/he); 0 (the default) adopts the data structure's
	// declared per-peer depth (ds.Requirements.Threshold) when known, else
	// each scheme's own default.
	Threshold int
	// EraFreq is the IBR/HE era-advance period.
	EraFreq int
}

// DefaultSchemeConfig returns the defaults documented in DESIGN.md §6.
// Slots is left at 0 (auto) so the per-data-structure reservation width
// applies unless an experiment pins it.
func DefaultSchemeConfig() SchemeConfig {
	return SchemeConfig{
		BagSize:    1024,
		LoFraction: 0.5,
		ScanFreq:   32,
		SendSpin:   600,
		HandleSpin: 300,
	}
}

// Canonical resolves a scheme name's aliases: the zero-reclamation baseline
// answers to "leaky" but is named "none" everywhere else (its Name, the
// figures, Table 1). Every name lookup in this package goes through it.
func Canonical(scheme string) string {
	if scheme == "leaky" {
		return "none"
	}
	return scheme
}

// NewSchemeFor constructs the named scheme sized to a data structure's
// declared widths: req.Reservations becomes NBR's R when cfg.Slots is 0
// (auto), and req.Slots sizes the hazard-pointer/era announcement arrays —
// every reservation or hazard scan then walks N·width entries for the width
// the structure actually uses instead of a global worst case. req.Threshold
// (per peer thread) sizes the threshold-triggered schemes' retire buffers
// when cfg.Threshold is 0 (auto), decoupling their scan frequency from the
// narrow per-DS Slots that would otherwise drag hp's 2·N·Slots default down
// with it; the 64-record floor matches the schemes' own minimum. Callers
// with no structure in mind pass ds.DefaultRequirements, the conservative
// global widths.
func NewSchemeFor(name string, arena mem.Arena, threads int, cfg SchemeConfig, req ds.Requirements) (smr.Scheme, error) {
	if req.Slots <= 0 {
		req.Slots = ds.DefaultRequirements.Slots
	}
	if req.Reservations <= 0 {
		req.Reservations = ds.DefaultRequirements.Reservations
	}
	if cfg.Slots == 0 {
		cfg.Slots = req.Reservations
	}
	if cfg.Threshold == 0 && req.Threshold > 0 {
		cfg.Threshold = threads * req.Threshold
		if cfg.Threshold < 64 {
			cfg.Threshold = 64
		}
	}
	sig := sigsim.Config{SendSpin: cfg.SendSpin, HandleSpin: cfg.HandleSpin}
	sch, err := newScheme(name, arena, threads, cfg, req, sig)
	if err != nil {
		return nil, err
	}
	// Size each thread's allocator cache to the scheme's declared
	// reclamation burst (the limbo bag for NBR, the scan threshold for the
	// pointer/era schemes), so one reclamation amortizes to at most one
	// shared-shard interaction and the recycled slots stay local for the
	// allocations that refill the structure (ROADMAP item from PR 1).
	// Lease-managed callers re-apply the same sizing per slot at acquire
	// time via the registry hooks.
	if burst := sch.ReclaimBurst(); burst > 0 {
		for tid := 0; tid < threads; tid++ {
			arena.SizeCache(tid, burst)
		}
	}
	return sch, nil
}

func newScheme(name string, arena mem.Arena, threads int, cfg SchemeConfig, req ds.Requirements, sig sigsim.Config) (smr.Scheme, error) {
	switch Canonical(name) {
	case "none":
		return leaky.New(arena, threads), nil
	case "qsbr":
		return qsbr.New(arena, threads, qsbr.Config{Threshold: cfg.Threshold}), nil
	case "rcu":
		return rcu.New(arena, threads, rcu.Config{Threshold: cfg.Threshold}), nil
	case "debra":
		return debra.New(arena, threads), nil
	case "hp":
		return hp.New(arena, threads, hp.Config{Slots: req.Slots, Threshold: cfg.Threshold}), nil
	case "ibr":
		return ibr.New(arena, threads, ibr.Config{Threshold: cfg.Threshold, EraFreq: cfg.EraFreq}), nil
	case "he":
		return he.New(arena, threads, he.Config{Slots: req.Slots, Threshold: cfg.Threshold, EraFreq: cfg.EraFreq}), nil
	case "nbr":
		return core.New(arena, threads, core.Config{
			BagSize: cfg.BagSize, LoFraction: cfg.LoFraction,
			ScanFreq: cfg.ScanFreq, Slots: cfg.Slots, Signals: sig,
		}), nil
	case "nbr+":
		return core.New(arena, threads, core.Config{
			Plus:    true,
			BagSize: cfg.BagSize, LoFraction: cfg.LoFraction,
			ScanFreq: cfg.ScanFreq, Slots: cfg.Slots, Signals: sig,
		}), nil
	}
	return nil, fmt.Errorf("catalog: unknown scheme %q (have %v)", name, SchemeNames)
}
