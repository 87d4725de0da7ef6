package catalog

import (
	"fmt"

	"nbr/internal/ds"
	"nbr/internal/ds/abtree"
	"nbr/internal/ds/dgtbst"
	"nbr/internal/ds/harrislist"
	"nbr/internal/ds/hashmap"
	"nbr/internal/ds/hmlist"
	"nbr/internal/ds/lazylist"
	"nbr/internal/mem"
)

// Instance is one constructed data structure plus its allocator hooks and
// the announcement widths it declares (consumed at scheme construction).
type Instance struct {
	Set      ds.Set
	Arena    mem.Arena
	MemStats func() mem.Stats
	Req      ds.Requirements
}

// NewDS constructs the named data structure sized for `threads`.
func NewDS(name string, threads int) (Instance, error) {
	return NewDSArena(name, mem.Config{MaxThreads: threads})
}

// NewDSArena constructs the named data structure over a pool built from
// cfg. A shared-arena runtime passes its assigned arena tag in cfg.Tag so
// the structure's handles route through a mem.Hub; NewDS is the untagged
// standalone form.
func NewDSArena(name string, cfg mem.Config) (Instance, error) {
	var inst Instance
	switch name {
	case "lazylist":
		l := lazylist.NewWith(cfg)
		inst = Instance{Set: l, Arena: l.Arena(), MemStats: l.MemStats}
	case "harris":
		l := harrislist.NewWith(cfg)
		inst = Instance{Set: l, Arena: l.Arena(), MemStats: l.MemStats}
	case "hashmap":
		h := hashmap.NewWith(cfg)
		inst = Instance{Set: h, Arena: h.Arena(), MemStats: h.MemStats}
	case "hmlist":
		l := hmlist.NewWith(cfg, hmlist.Restart)
		inst = Instance{Set: l, Arena: l.Arena(), MemStats: l.MemStats}
	case "hmlist-norestart":
		l := hmlist.NewWith(cfg, hmlist.NoRestart)
		inst = Instance{Set: l, Arena: l.Arena(), MemStats: l.MemStats}
	case "dgt":
		t := dgtbst.NewWith(cfg)
		inst = Instance{Set: t, Arena: t.Arena(), MemStats: t.MemStats}
	case "abtree":
		t := abtree.NewWith(cfg)
		inst = Instance{Set: t, Arena: t.Arena(), MemStats: t.MemStats}
	default:
		return Instance{}, fmt.Errorf("catalog: unknown data structure %q (have %v)", name, DSNames)
	}
	inst.Req = inst.Set.Requirements()
	return inst, nil
}

// dsRequirements is the width registry: the announcement widths each
// structure kind declares, available without constructing an instance. A
// shared runtime uses it to size its scheme for structure kinds that will
// attach later (RuntimeOptions.Structures). TestDSRequirementsMatchInstances
// pins each entry to the corresponding Set.Requirements(), so the table
// cannot drift from the structures' own declarations.
var dsRequirements = map[string]ds.Requirements{
	"lazylist":         {Slots: 2, Reservations: 2, Threshold: ds.DefaultThreshold},
	"harris":           {Slots: 3, Reservations: 2, Threshold: ds.DefaultThreshold},
	"hashmap":          {Slots: 4, Reservations: 3, Threshold: ds.DefaultThreshold},
	"hmlist":           {Slots: 2, Reservations: 2, Threshold: ds.DefaultThreshold},
	"hmlist-norestart": {Slots: 2, Reservations: 2, Threshold: ds.DefaultThreshold},
	"dgt":              {Slots: 3, Reservations: 3, Threshold: ds.DefaultThreshold},
	"abtree":           {Slots: 2, Reservations: 3, Threshold: ds.DefaultThreshold},
}

// DSRequirements returns the announcement widths the named structure kind
// declares, without constructing it.
func DSRequirements(name string) (ds.Requirements, error) {
	req, ok := dsRequirements[name]
	if !ok {
		return ds.Requirements{}, fmt.Errorf("catalog: unknown data structure %q (have %v)", name, DSNames)
	}
	return req, nil
}

// MaxRequirements folds the width registry over names: the smallest widths
// every named structure kind fits under. An empty list yields the zero value
// (callers grow it from actual attachments).
func MaxRequirements(names []string) (ds.Requirements, error) {
	var acc ds.Requirements
	for _, name := range names {
		req, err := DSRequirements(name)
		if err != nil {
			return ds.Requirements{}, err
		}
		acc = acc.Max(req)
	}
	return acc, nil
}
