// Package obs is the co-simulation observability layer: an atomic metrics
// registry (counters, gauges, fixed-bucket latency histograms), a
// per-quantum span tracer backed by a preallocated ring buffer that exports
// Chrome trace-event JSON, and an opt-in net/http introspection server.
//
// The paper's evaluation measures the co-simulation itself — where
// wall-clock time goes inside a synchronization quantum (RTL vs. env vs.
// exchange), bridge queue occupancy, and simulation rate
// (§5–6, Fig. 9–11). This package makes those measurements first-class and
// cheap enough to leave compiled into the hot path:
//
//   - Every record method is nil-safe: a disabled instrument is a nil
//     pointer and each hook reduces to one branch, so the synchronizer's
//     quantum loop stays allocation-free and within noise of its
//     baseline when observability is off.
//   - When enabled, recording is a few atomic operations into
//     preallocated storage — no locks, no allocations, on any hot path.
//
// Construction goes through a Registry (typically via Suite), which owns
// the export side: Prometheus text exposition and a JSON snapshot.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is usable;
// a nil Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Store overwrites the counter with an externally accumulated monotonic
// value — used to mirror counters another component already maintains
// (e.g. the SoC engine's cycle accounting) without double bookkeeping.
func (c *Counter) Store(v uint64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value. A nil Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (e.g. peak bridge queue occupancy).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histMaxBuckets bounds the fixed bucket count so Histogram storage stays
// small and preallocated.
const histMaxBuckets = 64

// Histogram is a fixed-bucket latency histogram. Bucket upper bounds are
// nanoseconds; observations clamp into the final +Inf bucket. Recording is
// a linear scan over at most histMaxBuckets bounds plus two atomic adds —
// no locks, no allocation. A nil Histogram discards observations.
type Histogram struct {
	bounds []int64 // ascending upper bounds, ns
	counts []atomic.Uint64
	inf    atomic.Uint64 // observations above the last bound
	sum    atomic.Int64  // total observed ns
	n      atomic.Uint64
}

// DefaultLatencyBuckets covers 1 µs to ~67 s in powers of two — wide enough
// for RPC round-trips, quantum phases, and simulated inference latencies.
func DefaultLatencyBuckets() []int64 {
	b := make([]int64, 27)
	v := int64(1000) // 1 µs
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	h.n.Add(1)
	for i, b := range h.bounds {
		if ns <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile returns an upper-bound estimate of the p-quantile (0 ≤ p ≤ 1):
// the upper bound of the bucket containing the target rank, as Prometheus
// would report. Returns 0 when empty.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	target := uint64(p * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > target {
			return time.Duration(h.bounds[i])
		}
	}
	if len(h.bounds) == 0 {
		// A directly constructed boundless histogram: every observation is
		// in the overflow bucket, so the mean is the best estimate left.
		return h.Mean()
	}
	// Target rank lies in the overflow bucket; the best bound we have is
	// the maximum finite bound.
	return time.Duration(h.bounds[len(h.bounds)-1])
}

// metricKind discriminates export formatting.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metricEntry struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	// scoped holds the per-scope (labeled) instruments registered under this
	// name by child Scopes. Guarded by the registry mutex; export passes copy
	// the slice under the lock and then read only atomics.
	scoped []*scopedInstr
}

// scopedInstr is one Scope's instrument under a parent entry: the same
// atomic storage as an unscoped instrument plus the scope's rendered label
// block (`mission_id="m0",map="tunnel"`).
type scopedInstr struct {
	labels  string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// entrySnap is one entry plus a consistent copy of its scoped instruments,
// taken under the registry lock for an export pass.
type entrySnap struct {
	e      *metricEntry
	scoped []*scopedInstr
}

// Registry owns a set of named metrics and renders them for export. A nil
// Registry returns nil instruments from every constructor, which in turn
// discard all updates — the disabled configuration needs no special casing.
type Registry struct {
	mu      sync.Mutex
	entries []*metricEntry
	byName  map[string]*metricEntry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metricEntry)}
}

func (r *Registry) register(name, help string, kind metricKind) *metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return e
	}
	e := &metricEntry{name: name, help: help, kind: kind}
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	e := r.register(name, help, kindCounter)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	e := r.register(name, help, kindGauge)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// Histogram registers (or returns the existing) histogram under name with
// the given ascending bucket bounds in nanoseconds (nil or empty selects
// DefaultLatencyBuckets). Bounds beyond histMaxBuckets are truncated.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	e := r.register(name, help, kindHistogram)
	if e.hist == nil {
		if len(bounds) == 0 {
			bounds = DefaultLatencyBuckets()
		}
		if len(bounds) > histMaxBuckets {
			bounds = bounds[:histMaxBuckets]
		}
		e.hist = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)),
		}
	}
	return e.hist
}

// Names returns every registered metric name in registration order — the
// hook the metric-naming lint test walks. Nil-safe (empty).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	entries := r.snapshot()
	names := make([]string, len(entries))
	for i, s := range entries {
		names[i] = s.e.name
	}
	return names
}

// snapshot returns the entries (with their scoped instruments copied) under
// the lock, for a consistent export pass.
func (r *Registry) snapshot() []entrySnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]entrySnap, len(r.entries))
	for i, e := range r.entries {
		out[i] = entrySnap{e: e}
		if len(e.scoped) > 0 {
			out[i].scoped = append([]*scopedInstr(nil), e.scoped...)
		}
	}
	return out
}

// lookup returns the entry and a copy of its scoped instruments (nil when
// the name is unregistered) — the read side of the aggregate helpers.
func (r *Registry) lookup(name string) (e *metricEntry, scoped []*scopedInstr) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e = r.byName[name]
	if e != nil && len(e.scoped) > 0 {
		scoped = append([]*scopedInstr(nil), e.scoped...)
	}
	return e, scoped
}

// AggCounter returns the aggregate value of a counter across the parent
// instrument and every scope: the parent-side series `/metrics` exports.
// Unregistered names read 0.
func (r *Registry) AggCounter(name string) uint64 {
	e, scoped := r.lookup(name)
	if e == nil || e.kind != kindCounter {
		return 0
	}
	v := e.counter.Value()
	for _, s := range scoped {
		v += s.counter.Value()
	}
	return v
}

// AggGauge returns the sum of a gauge across parent and scopes (the right
// aggregation for occupancy-style gauges; use MaxGauge for high-water marks).
func (r *Registry) AggGauge(name string) int64 {
	e, scoped := r.lookup(name)
	if e == nil || e.kind != kindGauge {
		return 0
	}
	v := e.gauge.Value()
	for _, s := range scoped {
		v += s.gauge.Value()
	}
	return v
}

// MaxGauge returns the maximum of a gauge across parent and scopes — the
// presentation aggregate for high-water marks (a fleet's peak queue depth is
// the max over missions, not their sum).
func (r *Registry) MaxGauge(name string) int64 {
	e, scoped := r.lookup(name)
	if e == nil || e.kind != kindGauge {
		return 0
	}
	v := e.gauge.Value()
	for _, s := range scoped {
		if sv := s.gauge.Value(); sv > v {
			v = sv
		}
	}
	return v
}

// HistSnapshot is a point-in-time merged view of one histogram name across
// the parent instrument and every scope (bucket-wise sum; all instruments
// under one name share bucket bounds by construction).
type HistSnapshot struct {
	Bounds []int64 // ascending upper bounds, ns
	Counts []uint64
	Inf    uint64
	SumNs  int64
	N      uint64
}

// Count returns the merged observation count.
func (h HistSnapshot) Count() uint64 { return h.N }

// Sum returns the merged total observed time.
func (h HistSnapshot) Sum() time.Duration { return time.Duration(h.SumNs) }

// Mean returns the merged mean observation (0 when empty).
func (h HistSnapshot) Mean() time.Duration {
	if h.N == 0 {
		return 0
	}
	return time.Duration(h.SumNs / int64(h.N))
}

// Quantile returns the merged upper-bound p-quantile estimate, mirroring
// Histogram.Quantile.
func (h HistSnapshot) Quantile(p float64) time.Duration {
	if h.N == 0 {
		return 0
	}
	target := uint64(p * float64(h.N))
	if target >= h.N {
		target = h.N - 1
	}
	var cum uint64
	for i := range h.Counts {
		cum += h.Counts[i]
		if cum > target {
			return time.Duration(h.Bounds[i])
		}
	}
	if len(h.Bounds) == 0 {
		return h.Mean()
	}
	return time.Duration(h.Bounds[len(h.Bounds)-1])
}

// accumulate folds one histogram's live counters into the snapshot.
func (h *HistSnapshot) accumulate(src *Histogram) {
	if src == nil {
		return
	}
	if h.Bounds == nil {
		h.Bounds = src.bounds
		h.Counts = make([]uint64, len(src.counts))
	}
	for i := range src.counts {
		if i < len(h.Counts) {
			h.Counts[i] += src.counts[i].Load()
		}
	}
	h.Inf += src.inf.Load()
	h.SumNs += src.sum.Load()
	h.N += src.n.Load()
}

// AggHist returns the merged histogram across parent and scopes.
func (r *Registry) AggHist(name string) HistSnapshot {
	e, scoped := r.lookup(name)
	var out HistSnapshot
	if e == nil || e.kind != kindHistogram {
		return out
	}
	out.accumulate(e.hist)
	for _, s := range scoped {
		out.accumulate(s.hist)
	}
	return out
}

func secs(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers, plain samples for counters and
// gauges, and cumulative le-bucketed samples (bounds in seconds) plus
// _sum/_count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, s := range r.snapshot() {
		e := s.e
		var err error
		switch e.kind {
		case kindCounter:
			agg := e.counter.Value()
			for _, sc := range s.scoped {
				agg += sc.counter.Value()
			}
			if _, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				e.name, e.help, e.name, e.name, agg); err != nil {
				return err
			}
			for _, sc := range s.scoped {
				if _, err = fmt.Fprintf(w, "%s{%s} %d\n", e.name, sc.labels, sc.counter.Value()); err != nil {
					return err
				}
			}
		case kindGauge:
			agg := e.gauge.Value()
			for _, sc := range s.scoped {
				agg += sc.gauge.Value()
			}
			if _, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				e.name, e.help, e.name, e.name, agg); err != nil {
				return err
			}
			for _, sc := range s.scoped {
				if _, err = fmt.Fprintf(w, "%s{%s} %d\n", e.name, sc.labels, sc.gauge.Value()); err != nil {
					return err
				}
			}
		case kindHistogram:
			if _, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
				e.name, e.help, e.name); err != nil {
				return err
			}
			var agg HistSnapshot
			agg.accumulate(e.hist)
			for _, sc := range s.scoped {
				agg.accumulate(sc.hist)
			}
			if err = writePromHist(w, e.name, "", agg); err != nil {
				return err
			}
			for _, sc := range s.scoped {
				var one HistSnapshot
				one.accumulate(sc.hist)
				if err = writePromHist(w, e.name, sc.labels, one); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writePromHist renders one histogram sample set (aggregate when labels is
// empty, a scoped series otherwise) in exposition format. _count is the
// cumulative +Inf bucket total, not the raw observation counter: Observe
// bumps n before the bucket, so a concurrent scrape reading n independently
// could transiently violate the invariant count == +Inf bucket that
// consumers assert.
func writePromHist(w io.Writer, name, labels string, h HistSnapshot) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, secs(b), cum); err != nil {
			return err
		}
	}
	cum += h.Inf
	var suffix string
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n%s_sum%s %s\n%s_count%s %d\n",
		name, labels, sep, cum, name, suffix, secs(h.SumNs), name, suffix, cum)
	return err
}

// histJSON is the JSON snapshot shape of one histogram.
type histJSON struct {
	Count uint64  `json:"count"`
	SumS  float64 `json:"sum_seconds"`
	MeanS float64 `json:"mean_seconds"`
	P50S  float64 `json:"p50_seconds"`
	P95S  float64 `json:"p95_seconds"`
	P99S  float64 `json:"p99_seconds"`
}

// WriteJSON renders a point-in-time JSON snapshot of every metric: plain
// numbers for counters/gauges, {count, sum, mean, p50, p95, p99} objects
// for histograms.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.jsonSnapshot())
}

// jsonSnapshot builds the JSON exposition map: one aggregate sample per
// name, plus one `name{labels}` sample per scope.
func (r *Registry) jsonSnapshot() map[string]any {
	out := make(map[string]any)
	for _, s := range r.snapshot() {
		e := s.e
		switch e.kind {
		case kindCounter:
			agg := e.counter.Value()
			for _, sc := range s.scoped {
				agg += sc.counter.Value()
				out[e.name+"{"+sc.labels+"}"] = sc.counter.Value()
			}
			out[e.name] = agg
		case kindGauge:
			agg := e.gauge.Value()
			for _, sc := range s.scoped {
				agg += sc.gauge.Value()
				out[e.name+"{"+sc.labels+"}"] = sc.gauge.Value()
			}
			out[e.name] = agg
		case kindHistogram:
			var agg HistSnapshot
			agg.accumulate(e.hist)
			for _, sc := range s.scoped {
				agg.accumulate(sc.hist)
				var one HistSnapshot
				one.accumulate(sc.hist)
				out[e.name+"{"+sc.labels+"}"] = histJSONOf(one)
			}
			out[e.name] = histJSONOf(agg)
		}
	}
	return out
}

func histJSONOf(h HistSnapshot) histJSON {
	return histJSON{
		Count: h.Count(),
		SumS:  h.Sum().Seconds(),
		MeanS: h.Mean().Seconds(),
		P50S:  h.Quantile(0.50).Seconds(),
		P95S:  h.Quantile(0.95).Seconds(),
		P99S:  h.Quantile(0.99).Seconds(),
	}
}
