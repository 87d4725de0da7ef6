package bench

import (
	"testing"
	"time"

	"nbr/internal/catalog"
)

func TestResultLatencyFieldsPopulated(t *testing.T) {
	r, err := Run(Workload{
		DS: "lazylist", Scheme: "debra", Threads: 2, KeyRange: 128,
		InsPct: 50, DelPct: 50, Duration: 80 * time.Millisecond,
		Prefill: -1, Cfg: catalog.DefaultSchemeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.LatP50 <= 0 || r.LatP99 < r.LatP50 || r.LatMax < r.LatP99 {
		t.Fatalf("latency quantiles inconsistent: p50=%v p99=%v max=%v",
			r.LatP50, r.LatP99, r.LatMax)
	}
}

func TestResultSeriesSampled(t *testing.T) {
	r, err := Run(Workload{
		DS: "lazylist", Scheme: "nbr+", Threads: 2, KeyRange: 128,
		InsPct: 50, DelPct: 50, Duration: 60 * time.Millisecond,
		Prefill: -1, Cfg: catalog.DefaultSchemeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) < 3 {
		t.Fatalf("timeline too short: %d samples", len(r.Series))
	}
	for _, v := range r.Series {
		if v < 0 {
			t.Fatal("negative live bytes sampled")
		}
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil, 10); s != "" {
		t.Fatalf("empty series must render empty, got %q", s)
	}
	s := sparkline([]int64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if len([]rune(s)) != 8 {
		t.Fatalf("width wrong: %q", s)
	}
	if []rune(s)[0] == []rune(s)[7] {
		t.Fatalf("monotone series must span block levels: %q", s)
	}
	flat := sparkline([]int64{5, 5, 5}, 3)
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat series width wrong: %q", flat)
	}
}

func TestSplitmix64Distribution(t *testing.T) {
	// Regression for the parity artifact that broke an example: op choice
	// and key must not correlate through low bits.
	s := uint64(42)
	var evenKeyDeletes, evenKeys int
	for i := 0; i < 10000; i++ {
		r := splitmix64(&s)
		key := r % 100
		roll := (r >> 32) % 2
		if key%2 == 0 {
			evenKeys++
			if roll == 0 {
				evenKeyDeletes++
			}
		}
	}
	if evenKeys == 0 {
		t.Fatal("no even keys at all")
	}
	frac := float64(evenKeyDeletes) / float64(evenKeys)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("op/key correlation detected: %.2f", frac)
	}
}

func TestPrefillCapsWorkers(t *testing.T) {
	// Prefill with many threads must not panic and must reach the target.
	r, err := Run(Workload{
		DS: "dgt", Scheme: "none", Threads: 12, KeyRange: 4_000,
		InsPct: 0, DelPct: 0, Duration: 20 * time.Millisecond,
		Prefill: -1, Cfg: catalog.DefaultSchemeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakLive < 2_000 {
		t.Fatalf("prefill incomplete: %d live", r.PeakLive)
	}
}
