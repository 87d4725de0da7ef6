package main

import (
	"fmt"
	"slices"
)

// check runs the correctness checks on a quiescent instance: every Set's
// length matches the bool results the ops returned, every structure
// validates, Drain reclaims everything with no staging, fallback reuse or
// reaped lease left, and the sampled garbage peak stayed within the declared
// bound. leaky never frees by design, so it skips the drain equality.
func check(in *instance, garbagePeak uint64, tr *tracer) error {
	for i, s := range in.sets {
		if got := int64(s.Len()); got != in.want[i] {
			return fmt.Errorf("%s: Len() = %d, want %d (prefill + inserts - deletes)",
				s.Name(), got, in.want[i])
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%s: Validate: %w", s.Name(), err)
		}
	}
	rt := in.rt
	t0 := now()
	if err := rt.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	tr.add(span{kind: spanDrain, start: t0, end: now()})
	st := rt.Stats()
	if st.Invalid() || (rt.Scheme() != "none" && st.Retired != st.Freed) {
		return fmt.Errorf("%s: after Drain retired %d != freed %d", rt.Scheme(), st.Retired, st.Freed)
	}
	if n := rt.StagedFrees(); n != 0 {
		return fmt.Errorf("%s: %d staged frees after Drain", rt.Scheme(), n)
	}
	if n := rt.FallbackReuses(); n != 0 {
		return fmt.Errorf("%s: %d fallback slot reuses", rt.Scheme(), n)
	}
	if n := rt.ReapedLeases(); n != 0 {
		return fmt.Errorf("%s: %d reaped leases", rt.Scheme(), n)
	}
	if b := rt.GarbageBound(); b >= 0 && garbagePeak > uint64(b) {
		return fmt.Errorf("%s: garbage peak %d above the declared bound %d", rt.Scheme(), garbagePeak, b)
	}
	return nil
}

// quantile is the nearest-rank q-quantile of xs (0 when empty). It sorts a
// copy, leaving xs in its recorded order.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
