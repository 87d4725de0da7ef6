package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors now(): monotonic nanoseconds since process start. time.Since
// reads only the monotonic clock, about half the cost of time.Now here.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Span kinds. A session span is one With (requests) or one 8-op group under
// a long lease; op spans are its Set calls and share its session id.
const (
	spanSession = iota
	spanOp
	spanAcquire
	spanRelease
	spanPrefill
	spanDrain
)

var spanNames = [...]string{"session", "op", "acquire", "release", "prefill", "drain"}

// Op kinds, as named in ds.<structure>.<op>_ns_p50.
const (
	opInsert = iota
	opDelete
	opContains
)

var opNames = [...]string{"insert", "delete", "contains"}

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	sess       uint64 // session id; 0 outside sessions
	kind       uint8
	set, op    uint8 // op spans: set index and op kind
	start, end int64 // now() nanoseconds
}

// maxSpans caps each worker's in-memory span buffer (32 bytes a span), so a
// faster program cannot grow a traced run's memory without bound.
const maxSpans = 1 << 18

func (w *worker) addSpan(s span) {
	if w.mode == modeTraced && len(w.spans) < maxSpans {
		w.spans = append(w.spans, s)
	}
}

// tracer collects the spans recorded outside the workers (prefill, drain).
// A nil tracer records nothing.
type tracer struct{ spans []span }

func (t *tracer) add(s span) {
	if t != nil {
		t.spans = append(t.spans, s)
	}
}

// writeSpans writes every span as CSV: session,name,start_ns,end_ns. Op
// spans are named structure.op; a session's op spans carry its id.
func writeSpans(path string, sets []setSpec, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "session,name,start_ns,end_ns")
	for _, s := range spans {
		name := spanNames[s.kind]
		if s.kind == spanOp {
			name = sets[s.set].structure + "." + opNames[s.op]
		}
		fmt.Fprintf(bw, "%x,%s,%d,%d\n", s.sess, name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is what the per-layer metrics read from the spans.
type spanSummary struct {
	sessionSelfP50 float64            // session span minus its op spans
	opP50          map[string]float64 // structure.op → p50 ns
}

func summarize(sets []setSpec, spans []span) spanSummary {
	sum := spanSummary{opP50: map[string]float64{}}
	childNs := map[uint64]int64{}
	byOp := map[string][]int64{}
	for _, s := range spans {
		if s.kind == spanOp {
			childNs[s.sess] += s.end - s.start
			name := sets[s.set].structure + "." + opNames[s.op]
			byOp[name] = append(byOp[name], s.end-s.start)
		}
	}
	var self []int64
	for _, s := range spans {
		if s.kind == spanSession {
			self = append(self, s.end-s.start-childNs[s.sess])
		}
	}
	sum.sessionSelfP50 = quantile(self, 0.5)
	for name, ds := range byOp {
		sum.opP50[name] = quantile(ds, 0.5)
	}
	return sum
}
