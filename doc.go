// Package nbr is a from-scratch Go reproduction of "NBR: Neutralization
// Based Reclamation" (Singh, Brown, Mashtizadeh; PPoPP 2021), and a usable
// library around it.
//
// The public API has one face. A Runtime (nbr.NewRuntime) is a shared
// reclamation substrate: one lease registry, one scheme instance and one
// arena serve every Set attached via NewSet. Handler goroutines Acquire a
// Lease, operate on any attached set through it (set.Insert(lease, key)),
// and Release it on the way out — thread slots recycle across any number
// of short-lived goroutines, departing threads leak nothing (their
// in-flight reclamation state is adopted by later reclaimers), and the
// scheme's garbage bound is declared once and holds across the
// churn and across every attached set. AcquireCtx provides FIFO blocking
// admission with context cancellation instead of spin-retry, and With is
// the panic-safe request envelope. See examples/server for the runtime
// under real net/http traffic and DESIGN.md §10 for the layer's design.
//
// A Domain (nbr.New) is that same Runtime with exactly one Set attached:
// it embeds both, so d.Acquire, d.Insert(lease, key), d.Drain and d.Stats
// are the Runtime's and the Set's own methods, and Options is the
// structure name plus the RuntimeOptions. See examples/quickstart.
//
// The paper's algorithms live in internal/core; the substrates that make
// them expressible under a garbage-collected runtime live in internal/mem
// (manual-memory pool with use-after-free detection) and internal/sigsim
// (simulated POSIX neutralization signals). internal/smr defines the
// scheme/data-structure interface, internal/smr/* the baseline reclamation
// algorithms, internal/ds/* the evaluated data structures (the paper's five
// plus a resizable split-ordered hash map whose doubling retires each old
// bucket array as one segment — K records behind a single scheme-side stamp;
// DESIGN.md §14), internal/catalog the by-name constructors the public
// package and the harnesses share, and internal/bench the harness that
// regenerates every figure of the paper's evaluation (driven by
// cmd/nbrbench or the top-level testing.B benchmarks in bench_test.go).
//
// The runtime is observable in time, not just in count: every Runtime
// carries a per-thread flight recorder (internal/obs) — fixed rings of
// packed events plus power-of-two latency histograms for admission wait,
// lease hold, read-phase duration, signal→neutralization latency, garbage
// residence age and reap latency — disabled by default at a cost of one
// predictable branch per instrumented path, switched on with
// Runtime.Observe(true). Runtime.Debug returns an http.Handler serving the
// JSON snapshot (stats, bounds, waiters, quantiles, the last-K merged
// events; examples/server mounts it at /debug/nbr behind -debug, alongside
// /debug/pprof with scheme/structure-labelled samples), PublishExpvar
// republishes the same document through expvar's /debug/vars, and on any
// bound or drain violation the test harnesses dump the merged event
// timeline, which names the stalled thread and its open read phase. See
// DESIGN.md §15.
//
// The usage rules this API implies — leases never leave their acquiring
// goroutine, read phases contain only restartable operations, arena handles
// are dereferenced only under a guard bracket or reservation — are enforced
// statically by cmd/nbrvet, which runs as a blocking CI check; see
// DESIGN.md §13 for the rules and the annotation grammar.
//
// See README.md for a tour, DESIGN.md for the architecture and the
// substitution arguments, and EXPERIMENTS.md for measured-vs-paper results.
package nbr
