// Package nbr's top-level benchmarks regenerate every table and figure of
// the paper at testing.B scale: each BenchmarkFigX mirrors one exhibit
// (DESIGN.md §5 maps them), running the same workload cells as cmd/nbrbench
// but with host-scaled key ranges and short trials so `go test -bench=.`
// finishes in minutes. Throughput is reported as the custom metric Mops/s
// (higher is better) and memory experiments additionally report peak-MB.
//
// For paper-shaped sweeps (full key ranges, thread sweeps, 5s trials) use:
//
//	go run ./cmd/nbrbench -experiment fig3a -full -duration 5s -trials 3
package nbr_test

import (
	"testing"
	"time"

	"nbr/internal/bench"
	"nbr/internal/catalog"
)

const (
	benchThreads  = 4
	benchDuration = 200 * time.Millisecond
	treeRange     = 50_000 // host-scaled stand-in for the paper's 2M
	bigTreeRange  = 100_000
)

// benchSchemes is the reduced comparison set used in the testing.B harness
// (the full set runs via cmd/nbrbench).
var benchSchemes = []string{"none", "debra", "hp", "nbr", "nbr+"}

// abSchemes excludes pointer-based schemes, which Table 1 rules out for the
// ABTree.
var abSchemes = []string{"none", "debra", "nbr", "nbr+"}

var benchMixes = []struct {
	name     string
	ins, del int
}{
	{"u50", 50, 50}, // update-intensive
	{"u25", 25, 25}, // balanced
	{"u5", 5, 5},    // search-intensive
}

func runCell(b *testing.B, w bench.Workload) {
	b.Helper()
	if w.Cfg == (catalog.SchemeConfig{}) {
		w.Cfg = catalog.DefaultSchemeConfig()
	}
	w.Duration = benchDuration
	w.Prefill = -1
	var mops, peak float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		mops += r.Mops
		if mb := float64(r.PeakBytes) / (1 << 20); mb > peak {
			peak = mb
		}
	}
	b.ReportMetric(mops/float64(b.N), "Mops/s")
	b.ReportMetric(peak, "peak-MB")
}

// BenchmarkFig3a is E1 on the DGT tree (paper key range 2M, host-scaled).
func BenchmarkFig3a(b *testing.B) {
	for _, m := range benchMixes {
		for _, s := range benchSchemes {
			b.Run(m.name+"/"+s, func(b *testing.B) {
				runCell(b, bench.Workload{DS: "dgt", Scheme: s, Threads: benchThreads,
					KeyRange: treeRange, InsPct: m.ins, DelPct: m.del})
			})
		}
	}
}

// BenchmarkFig3b is E1 on the lazy list (key range 20K).
func BenchmarkFig3b(b *testing.B) {
	for _, m := range benchMixes {
		for _, s := range benchSchemes {
			b.Run(m.name+"/"+s, func(b *testing.B) {
				runCell(b, bench.Workload{DS: "lazylist", Scheme: s, Threads: benchThreads,
					KeyRange: 20_000, InsPct: m.ins, DelPct: m.del})
			})
		}
	}
}

// BenchmarkFig4a is E3 on the ABTree at low contention (2M, scaled) and
// high contention (200).
func BenchmarkFig4a(b *testing.B) {
	for _, kr := range []struct {
		name string
		r    uint64
	}{{"large", treeRange}, {"small", 200}} {
		for _, s := range abSchemes {
			b.Run(kr.name+"/"+s, func(b *testing.B) {
				runCell(b, bench.Workload{DS: "abtree", Scheme: s, Threads: benchThreads,
					KeyRange: kr.r, InsPct: 50, DelPct: 50})
			})
		}
	}
}

// BenchmarkFig4b is E4: the Harris-Michael restart study.
func BenchmarkFig4b(b *testing.B) {
	series := []struct{ name, ds, scheme string }{
		{"nbr+", "hmlist", "nbr+"},
		{"debra-restarts", "hmlist", "debra"},
		{"debra-norestarts", "hmlist-norestart", "debra"},
		{"none", "hmlist", "none"},
	}
	for _, kr := range []struct {
		name string
		r    uint64
	}{{"20K", 20_000}, {"200", 200}} {
		for _, s := range series {
			b.Run(kr.name+"/"+s.name, func(b *testing.B) {
				runCell(b, bench.Workload{DS: s.ds, Scheme: s.scheme, Threads: benchThreads,
					KeyRange: kr.r, InsPct: 50, DelPct: 50})
			})
		}
	}
}

// BenchmarkFig4c is E2 with a stalled thread: peak-MB is the paper's metric.
func BenchmarkFig4c(b *testing.B) {
	for _, s := range benchSchemes {
		b.Run(s, func(b *testing.B) {
			runCell(b, bench.Workload{DS: "dgt", Scheme: s, Threads: benchThreads,
				KeyRange: treeRange, InsPct: 50, DelPct: 50, Stall: true})
		})
	}
}

// BenchmarkFig4d is E2 without the stalled thread.
func BenchmarkFig4d(b *testing.B) {
	for _, s := range benchSchemes {
		b.Run(s, func(b *testing.B) {
			runCell(b, bench.Workload{DS: "dgt", Scheme: s, Threads: benchThreads,
				KeyRange: treeRange, InsPct: 50, DelPct: 50})
		})
	}
}

// BenchmarkFig5 covers the appendix DGT size sweep (20M scaled / 20K).
func BenchmarkFig5(b *testing.B) {
	for _, kr := range []struct {
		name string
		r    uint64
	}{{"large", bigTreeRange}, {"20K", 20_000}} {
		for _, s := range benchSchemes {
			b.Run(kr.name+"/"+s, func(b *testing.B) {
				runCell(b, bench.Workload{DS: "dgt", Scheme: s, Threads: benchThreads,
					KeyRange: kr.r, InsPct: 50, DelPct: 50})
			})
		}
	}
}

// BenchmarkFig6 covers the appendix lazy-list size sweep (2K / 200).
func BenchmarkFig6(b *testing.B) {
	for _, kr := range []struct {
		name string
		r    uint64
	}{{"2K", 2_000}, {"200", 200}} {
		for _, s := range benchSchemes {
			b.Run(kr.name+"/"+s, func(b *testing.B) {
				runCell(b, bench.Workload{DS: "lazylist", Scheme: s, Threads: benchThreads,
					KeyRange: kr.r, InsPct: 50, DelPct: 50})
			})
		}
	}
}

// BenchmarkFig7 covers the appendix Harris-list size sweep (200/2K/20K).
func BenchmarkFig7(b *testing.B) {
	for _, kr := range []struct {
		name string
		r    uint64
	}{{"200", 200}, {"2K", 2_000}, {"20K", 20_000}} {
		for _, s := range benchSchemes {
			b.Run(kr.name+"/"+s, func(b *testing.B) {
				runCell(b, bench.Workload{DS: "harris", Scheme: s, Threads: benchThreads,
					KeyRange: kr.r, InsPct: 50, DelPct: 50})
			})
		}
	}
}

// BenchmarkFig8 covers the appendix ABTree size sweep (20M scaled / 2M
// scaled).
func BenchmarkFig8(b *testing.B) {
	for _, kr := range []struct {
		name string
		r    uint64
	}{{"larger", bigTreeRange}, {"large", treeRange}} {
		for _, s := range abSchemes {
			b.Run(kr.name+"/"+s, func(b *testing.B) {
				runCell(b, bench.Workload{DS: "abtree", Scheme: s, Threads: benchThreads,
					KeyRange: kr.r, InsPct: 50, DelPct: 50})
			})
		}
	}
}

// BenchmarkAblateSignals quantifies §5's O(n²)→O(n) signal reduction.
func BenchmarkAblateSignals(b *testing.B) {
	for _, s := range []string{"nbr", "nbr+"} {
		b.Run(s, func(b *testing.B) {
			w := bench.Workload{DS: "dgt", Scheme: s, Threads: benchThreads,
				KeyRange: treeRange, InsPct: 50, DelPct: 50,
				Duration: benchDuration, Prefill: -1, Cfg: catalog.DefaultSchemeConfig()}
			var signalsPerKop float64
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				signalsPerKop += float64(r.Stats.Signals) / float64(r.Ops) * 1000
			}
			b.ReportMetric(signalsPerKop/float64(b.N), "signals/kop")
		})
	}
}
