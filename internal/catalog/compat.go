package catalog

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// This file encodes the paper's Table 1 (applicability of SMR algorithms)
// for the data structures in the harness, in two layers:
//
//   - the *theoretical* verdicts of Table 1 itself, printed by cmd/nbrtable1
//     and asserted by tests;
//   - the *runnable* matrix, which additionally admits the combinations the
//     paper's own benchmark runs despite a "No" in Table 1 (HP on the lazy
//     list and on DGT, using the benchmark-style link re-read validation at
//     the documented cost of the structures' progress guarantees).

// DSNames lists the data structures in the harness.
var DSNames = []string{"lazylist", "harris", "hashmap", "hmlist", "hmlist-norestart", "dgt", "abtree"}

// Verdict is one Table 1 cell.
type Verdict struct {
	OK   bool
	Note string
}

// table1 maps data structure → scheme family → verdict. Scheme families
// follow the paper's columns: NBR covers nbr and nbr+; EBR covers qsbr, rcu
// and debra; HP covers hp, ibr and he (the paper groups HP/IBR/HE/… in one
// column because their integration requirements coincide).
var table1 = map[string]map[string]Verdict{
	"lazylist": {
		"NBR": {true, "single Φread then Φwrite; reserve pred and curr (2 reservations)"},
		"EBR": {true, ""},
		"HP":  {false, "repeated protect failures on marked-but-linked nodes break wait-free searches (run in benchmark mode anyway, as the paper's E1 does)"},
	},
	"harris": {
		"NBR": {true, "multiple read/write phases, every Φread restarts from the root (§5.2, Alg. 3); ≤3 reservations"},
		"EBR": {true, ""},
		"HP":  {true, "validate via link re-read (HM04-style)"},
	},
	"hashmap": {
		"NBR": {true, "split-ordered list; every Φread restarts from the root (table pointer and dummies are roots); ≤3 reservations, one of them the cell array's segment handle"},
		"EBR": {true, ""},
		"HP":  {true, "validate via table re-read + link re-read (HM04-style); cells pinned through the array's segment handle"},
	},
	"hmlist": {
		"NBR": {true, "E4 modification: every Φread restarts from the root"},
		"EBR": {true, ""},
		"HP":  {true, ""},
	},
	"hmlist-norestart": {
		"NBR": {false, "Φread after an auxiliary Φwrite resumes from pred, violating Requirement 12"},
		"EBR": {true, ""},
		"HP":  {true, ""},
	},
	"dgt": {
		"NBR": {true, "sync-free search then ticket-locked update; ≤3 reservations"},
		"EBR": {true, ""},
		"HP":  {false, "no marks, so reachability of a protected node cannot be validated (run in benchmark mode anyway, as the paper's E1 does)"},
	},
	"abtree": {
		"NBR": {true, "auxiliary rebalancing steps restart from the root; ≤3 reservations"},
		"EBR": {true, ""},
		"HP":  {false, "searches traverse nodes whose reachability cannot be validated without version support"},
	},
}

// family maps a concrete scheme name onto its Table 1 column.
func family(scheme string) string {
	switch Canonical(scheme) {
	case "nbr", "nbr+":
		return "NBR"
	case "qsbr", "rcu", "debra", "none":
		return "EBR" // leaky trivially applies everywhere; grouped for lookup
	case "hp", "ibr", "he":
		return "HP"
	}
	return ""
}

// Table1Verdict returns the paper's theoretical applicability verdict.
func Table1Verdict(dsName, scheme string) (Verdict, bool) {
	if Canonical(scheme) == "none" {
		return Verdict{true, "leaky baseline applies everywhere"}, true
	}
	row, ok := table1[dsName]
	if !ok {
		return Verdict{}, false
	}
	v, ok := row[family(scheme)]
	return v, ok
}

// runnableExceptions lists combinations that Table 1 rejects but the paper's
// benchmark nevertheless runs (with benchmark-style validation).
var runnableExceptions = map[[2]string]bool{
	{"lazylist", "HP"}: true,
	{"dgt", "HP"}:      true,
}

// Runnable reports whether the harness will execute the combination, which
// is the Table 1 verdict plus the paper's own benchmark exceptions.
func Runnable(dsName, scheme string) bool {
	v, ok := Table1Verdict(dsName, scheme)
	if !ok {
		return false
	}
	if v.OK {
		return true
	}
	return runnableExceptions[[2]string{dsName, family(scheme)}]
}

// PrintTable1 renders the applicability matrix with its notes.
func PrintTable1(out io.Writer) {
	tw := tabwriter.NewWriter(out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "structure\tNBR/NBR+\tEBR (qsbr,rcu,debra)\tHP-family (hp,ibr,he)")
	names := append([]string{}, DSNames...)
	sort.Strings(names)
	for _, d := range names {
		fmt.Fprintf(tw, "%s", d)
		for _, fam := range []string{"nbr", "debra", "hp"} {
			v, _ := Table1Verdict(d, fam)
			cell := "no"
			if v.OK {
				cell = "yes"
			} else if Runnable(d, fam) {
				cell = "no*"
			}
			fmt.Fprintf(tw, "\t%s", cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(out, "\n(no* = Table 1 says no, but the harness runs it in benchmark mode as the paper's E1 does)")
	fmt.Fprintln(out, "\nnotes:")
	for _, d := range names {
		for _, fam := range []string{"nbr", "debra", "hp"} {
			if v, ok := Table1Verdict(d, fam); ok && v.Note != "" {
				fmt.Fprintf(out, "  %s / %s: %s\n", d, fam, v.Note)
			}
		}
	}
}
