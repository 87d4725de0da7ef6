package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nbr"
)

// workers is the closed-loop client count: one per vCPU of the 2-vCPU host
// the baseline was taken on. Each worker waits for its previous call before
// issuing the next, as a handler pool does.
const workers = 2

// sessionOps is the number of Set calls in one session. On requests a
// session is one Runtime.With; under a long lease it is 8 consecutive ops,
// so session latency compares the same amount of data-structure work.
const sessionOps = 8

// warmup runs before every measured interval so pool slabs, thread caches
// and limbo bags reach their steady state before counters are snapshotted.
const warmup = 500 * time.Millisecond

// requestDeadline is the per-request deadline on requests. A session that
// returns after it counts as failed, like a With error.
const requestDeadline = 100 * time.Millisecond

// setSpec is one structure a workload attaches, with its key range.
type setSpec struct {
	structure string
	keys      uint64
}

// workload is one traffic mix over the public nbr API. ins and del are
// percentages; the remainder are Contains calls.
type workload struct {
	name      string
	sets      []setSpec
	ins, del  uint64
	longLease bool
}

var workloads = []workload{
	// Short traversal, mostly reads: the read-phase bracket dominates and
	// retirement is rare.
	{name: "map-read", sets: []setSpec{{"hashmap", 65536}}, ins: 5, del: 5, longLease: true},
	// About one retire every two ops: bags reach the HiWatermark every few
	// thousand ops, so scans, signals and free bursts dominate.
	{name: "tree-churn", sets: []setSpec{{"dgt", 1024}}, ins: 50, del: 50, longLease: true},
	// The examples/server pair on one runtime, one lease per 8-op session:
	// admission, slot recovery, forced rounds and cross-structure routing.
	{name: "requests", sets: []setSpec{{"lazylist", 256}, {"dgt", 4096}}, ins: 20, del: 20},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options returns the RuntimeOptions for a scheme: every other field at
// its zero value, except that requests caps the registry at one slot per
// worker, so every acquire recycles a quarantined slot.
func (w workload) options(scheme string) nbr.RuntimeOptions {
	o := nbr.RuntimeOptions{Scheme: scheme}
	if !w.longLease {
		o.MaxThreads = workers
	}
	return o
}

// rng is splitmix64: a per-worker stream fully determined by the seed.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) rng {
	return rng{s: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// instance is one constructed runtime with its prefilled sets.
type instance struct {
	w    workload
	rt   *nbr.Runtime
	sets []*nbr.Set
	want []int64 // expected Len per set: prefill + inserts - deletes
}

// setup builds the runtime, attaches the workload's structures and inserts
// half of each key range, in a seed-shuffled order (the dgt tree is
// unbalanced, so sorted inserts would degrade it to a list). It is what
// setup_s times.
func setup(w workload, scheme string, seed uint64, tr *tracer) (*instance, error) {
	rt, err := nbr.NewRuntime(w.options(scheme))
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, rt: rt}
	for _, s := range w.sets {
		set, err := rt.NewSet(s.structure)
		if err != nil {
			return nil, err
		}
		in.sets = append(in.sets, set)
	}
	t0 := now()
	l, err := rt.Acquire()
	if err != nil {
		return nil, fmt.Errorf("prefill lease: %w", err)
	}
	r := newRNG(seed, 1000)
	for i, s := range w.sets {
		keys := make([]uint64, s.keys)
		for k := range keys {
			keys[k] = uint64(k) + 1
		}
		for k := len(keys) - 1; k > 0; k-- {
			j := r.next() % uint64(k+1)
			keys[k], keys[j] = keys[j], keys[k]
		}
		var n int64
		for _, k := range keys[:len(keys)/2] {
			if in.sets[i].Insert(l, k) {
				n++
			}
		}
		in.want = append(in.want, n)
	}
	l.Release()
	tr.add(span{kind: spanPrefill, start: t0, end: now()})
	return in, nil
}

// Run modes: untraced times a sample of sessions and ops for the
// end-to-end metrics; traced records spans on a sample of sessions and
// times nothing else.
const (
	modeUntraced = iota
	modeTraced
)

// Sampling rates. Untraced: of every 8 sessions, session 4 has each of its
// ops timed and the other 7 are timed whole (an op-timed session would
// inflate its own session time). Traced: one session in 64 is fully spanned.
const (
	untracedEvery = 8
	tracedEvery   = 64
	peakEvery     = 8 // sessions between garbage samples, per worker
)

// counters is the snapshot of the public counters a run takes before and
// after its measured interval.
type counters struct {
	st        nbr.Stats
	forced    uint64
	orphans   uint64
	globalOps uint64
}

func snapshot(rt *nbr.Runtime) counters {
	return counters{
		st:        rt.Stats(),
		forced:    rt.ForcedRounds(),
		orphans:   rt.OrphansAdopted(),
		globalOps: rt.MemStats().GlobalOps,
	}
}

// result is one measured interval, split into equal windows. The timing
// metrics are medians over the windows, so a burst of interference from
// outside the benchmark moves one window, not the result.
type result struct {
	windows     []window
	sessions    uint64
	attempted   uint64
	failed      uint64
	garbagePeak uint64 // over the whole run, warmup included
	before      counters
	after       counters
	spans       []span
}

// window is one slice of the measured interval.
type window struct {
	elapsed        time.Duration
	ops            uint64
	opLat, sessLat []int64
	garbagePeak    uint64
}

func (r result) ops() uint64 {
	var n uint64
	for _, w := range r.windows {
		n += w.ops
	}
	return n
}

// perWindow returns the median over the windows of f.
func (r result) perWindow(f func(window) float64) float64 {
	vs := make([]float64, len(r.windows))
	for i, w := range r.windows {
		vs[i] = f(w)
	}
	return median(vs)
}

func (r result) opsPerSec() float64 {
	return r.perWindow(func(w window) float64 { return float64(w.ops) / w.elapsed.Seconds() })
}

// nsPerOp is wall time per op per worker, at the median window's rate.
func (r result) nsPerOp() float64 { return 1e9 * workers / r.opsPerSec() }

func (r result) opQuantile(q float64) float64 {
	return r.perWindow(func(w window) float64 { return quantile(w.opLat, q) })
}

func (r result) sessionQuantile(q float64) float64 {
	return r.perWindow(func(w window) float64 { return quantile(w.sessLat, q) })
}

// meanWindowPeak is the mean over the windows of each window's sampled
// garbage peak. A peak is a maximum of small integers on requests, where
// every release drains; averaging window peaks steadies it, where a median
// would stay an integer.
func (r result) meanWindowPeak() float64 {
	var sum float64
	for _, w := range r.windows {
		sum += float64(w.garbagePeak)
	}
	return sum / float64(len(r.windows))
}

// windowLen is the length of one measurement window.
const windowLen = time.Second

// The run clock, read by the workers at every session boundary: warming up,
// then the index of the current window, then stopped (= number of windows).
const clockWarm = -1

type worker struct {
	in    *instance
	id    int
	mode  int
	r     rng
	clock *atomic.Int32
	stop  int32

	seq      uint64 // sessions started, all phases
	timeOps  bool   // time each op of the current session
	spanning bool   // span the current session
	sessID   uint64
	win      int32 // window of the current session

	ops            []uint64 // per window: ops whose session started in it
	opLat, sessLat [][]int64
	peak           []uint64 // per window
	maxPeak        uint64   // all phases
	sessions       uint64
	failed         uint64
	spans          []span
	ins, del       []int64 // successful inserts/deletes per set, all phases

	body func(*nbr.Lease) error // the With body, bound once
	err  error
}

// run drives the instance with the closed-loop workers for d after warmup,
// in windows of windowLen (one window when d is shorter).
func run(in *instance, seed uint64, d time.Duration, mode int) (result, error) {
	n := max(1, int(d/windowLen))
	var clock atomic.Int32
	clock.Store(clockWarm)
	ws := make([]*worker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		w := &worker{in: in, id: i, mode: mode, r: newRNG(seed, uint64(i)), clock: &clock, stop: int32(n),
			ops: make([]uint64, n), opLat: make([][]int64, n), sessLat: make([][]int64, n), peak: make([]uint64, n),
			ins: make([]int64, len(in.sets)), del: make([]int64, len(in.sets))}
		w.body = w.sessionBody
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop()
		}()
	}
	time.Sleep(warmup)
	res := result{windows: make([]window, n)}
	res.before = snapshot(in.rt)
	start := time.Now()
	last := start
	clock.Store(0)
	for i := range res.windows {
		time.Sleep(time.Until(start.Add(d * time.Duration(i+1) / time.Duration(n))))
		clock.Store(int32(i + 1))
		t := time.Now()
		res.windows[i].elapsed = t.Sub(last)
		last = t
	}
	res.after = snapshot(in.rt)
	wg.Wait()
	for _, w := range ws {
		if w.err != nil {
			return res, w.err
		}
		for i := range res.windows {
			res.windows[i].ops += w.ops[i]
			res.windows[i].opLat = append(res.windows[i].opLat, w.opLat[i]...)
			res.windows[i].sessLat = append(res.windows[i].sessLat, w.sessLat[i]...)
			res.windows[i].garbagePeak = max(res.windows[i].garbagePeak, w.peak[i])
		}
		res.sessions += w.sessions
		res.failed += w.failed
		res.spans = append(res.spans, w.spans...)
		res.garbagePeak = max(res.garbagePeak, w.maxPeak)
		for i := range in.sets {
			in.want[i] += w.ins[i] - w.del[i]
		}
	}
	res.attempted = res.ops()
	if !in.w.longLease {
		res.attempted = res.sessions
	}
	return res, nil
}

func (w *worker) loop() {
	var l *nbr.Lease
	if w.in.w.longLease {
		t0 := now()
		var err error
		if l, err = w.in.rt.Acquire(); err != nil {
			w.err = fmt.Errorf("worker %d lease: %w", w.id, err)
			return
		}
		w.addSpan(span{kind: spanAcquire, start: t0, end: now()})
		defer func() {
			t0 := now()
			l.Release()
			w.addSpan(span{kind: spanRelease, start: t0, end: now()})
		}()
	}
	for {
		win := w.clock.Load()
		if win == w.stop {
			return
		}
		measured := win != clockWarm
		w.seq++
		w.timeOps, w.spanning = false, false
		timeSession := false
		if measured {
			switch w.mode {
			case modeUntraced:
				w.timeOps = w.seq%untracedEvery == untracedEvery/2
				timeSession = !w.timeOps
			case modeTraced:
				w.spanning = w.seq%tracedEvery == 0
				timeSession = w.spanning
			}
		}
		w.sessID = uint64(w.id)<<48 | w.seq
		w.win = win
		// Requests are always clocked: a session past its deadline fails.
		clocked := timeSession || !w.in.w.longLease
		var t0 int64
		if clocked {
			t0 = now()
		}
		failed := false
		if l != nil {
			w.sessionBody(l)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
			err := w.in.rt.With(ctx, w.body)
			cancel()
			failed = err != nil
		}
		if clocked {
			t1 := now()
			if !w.in.w.longLease && t1-t0 > int64(requestDeadline) {
				failed = true
			}
			switch {
			case w.spanning:
				w.addSpan(span{sess: w.sessID, kind: spanSession, start: t0, end: t1})
			case timeSession:
				w.sessLat[win] = append(w.sessLat[win], t1-t0)
			}
		}
		if measured {
			w.sessions++
			if failed {
				w.failed++
			}
		}
	}
}

// sessionBody issues one session's ops. Under requests op j goes to set
// j mod 2, alternating the two structures within every session.
func (w *worker) sessionBody(l *nbr.Lease) error {
	sets := w.in.sets
	for j := 0; j < sessionOps; j++ {
		si := j % len(sets)
		x := w.r.next()
		pick := (x >> 32) % 100
		key := 1 + (x&0xffffffff)%w.in.w.sets[si].keys
		clocked := w.timeOps || w.spanning
		var t0 int64
		if clocked {
			t0 = now()
		}
		var kind uint8
		switch {
		case pick < w.in.w.ins:
			kind = opInsert
			if sets[si].Insert(l, key) {
				w.ins[si]++
			}
		case pick < w.in.w.ins+w.in.w.del:
			kind = opDelete
			if sets[si].Delete(l, key) {
				w.del[si]++
			}
		default:
			kind = opContains
			sets[si].Contains(l, key)
		}
		if clocked {
			t1 := now()
			if w.spanning {
				w.addSpan(span{sess: w.sessID, kind: spanOp, set: uint8(si), op: kind, start: t0, end: t1})
			} else {
				w.opLat[w.win] = append(w.opLat[w.win], t1-t0)
			}
		}
		if w.win != clockWarm {
			w.ops[w.win]++
		}
	}
	// Sampled before a requests session releases its lease, when its own
	// retired records are still in its bag.
	if w.seq%peakEvery == 0 {
		g := w.in.rt.Stats().Garbage()
		w.maxPeak = max(w.maxPeak, g)
		if w.win != clockWarm {
			w.peak[w.win] = max(w.peak[w.win], g)
		}
	}
	return nil
}
