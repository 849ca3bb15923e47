package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records named spans into a preallocated ring buffer and exports
// them as Chrome trace-event JSON (the "complete event" form, ph "X"),
// loadable in Perfetto or chrome://tracing.
//
// Recording claims a slot with one atomic increment and publishes a
// fixed-size event behind a per-slot sequence counter (a seqlock: the
// writer bumps the sequence to odd, stores the fields, bumps it to even)
// — no locks, no allocation — so spans can be emitted from concurrent
// missions, RPC clients and the env server at once. Span names are interned into a fixed table and slots hold
// only the interned ID, so a concurrent export never observes a torn
// string. Readers retry a slot whose sequence is odd or changed mid-read
// and skip it if the writer is still in flight, which makes
// WriteChromeTrace safe against a live run (the /trace.json endpoint).
// When the ring wraps, the oldest spans are overwritten: a bounded trace
// always holds the most recent window of the run. A nil Tracer discards
// spans.
type Tracer struct {
	epoch time.Time
	slots []slot
	n     atomic.Uint64

	nameMu    sync.Mutex
	nameCount atomic.Uint32
	names     [maxTraceNames]string
}

// slot is one ring entry. Every field is accessed atomically; seq is the
// seqlock sequence (odd while a write is in flight, even once published,
// zero if never written).
type slot struct {
	seq   atomic.Uint64
	name  atomic.Uint32 // interned name ID
	tid   atomic.Int32
	cnt   atomic.Uint32 // 1 = counter sample ("C"), 0 = complete span ("X")
	start atomic.Int64  // ns since epoch
	dur   atomic.Int64  // span duration ns, or the counter sample's value
	q     atomic.Uint64 // quantum sequence + 1 (0 = untagged)
}

// maxTraceNames bounds the interned-name table. The co-simulation taxonomy
// uses a handful of static names; spans past the bound record under the
// overflow marker (ID 0) rather than dropping.
const maxTraceNames = 1024

// overflowName is interned at ID 0 and names spans recorded after the
// table filled.
const overflowName = "…"

// Track IDs for the co-simulation trace taxonomy. Chrome renders each tid
// as its own row. tid 2 is retired; the other IDs keep their values so
// traces from older builds still line up.
const (
	TrackSync  = 1 // synchronizer: quantum, exchange, env and RTL quanta
	TrackRPC   = 3 // RPC client: rpc.roundtrip spans
	TrackServe = 4 // env server: serve.* request spans
	TrackPower = 5 // simulated power rail: power_mw counter samples
)

// Event is one completed span as read back from the ring. Start is
// nanoseconds since the tracer's epoch; Seq is the quantum sequence the
// span was tagged with (valid only when HasSeq). A Counter event is an
// instantaneous sample (Chrome ph "C") whose value rides in Dur — the
// shape the power rail uses.
type Event struct {
	Name    string
	TID     int32
	Start   int64
	Dur     int64
	Seq     uint64
	HasSeq  bool
	Counter bool
}

// DefaultTraceEvents is the default ring capacity: at five spans per
// quantum this holds the trailing ~13k quanta, ~2 MB of storage.
const DefaultTraceEvents = 1 << 16

// NewTracer creates a tracer holding up to capacity events (<= 0 selects
// DefaultTraceEvents).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	t := &Tracer{epoch: time.Now(), slots: make([]slot, capacity)}
	t.names[0] = overflowName
	t.nameCount.Store(1)
	return t
}

// nameID interns name and returns its table index. The hot path is a
// linear scan of the published prefix — allocation-free, and for the
// static span taxonomy a handful of pointer-equal string compares. First
// use of a name takes the mutex to append it.
func (t *Tracer) nameID(name string) uint32 {
	count := t.nameCount.Load()
	for i := uint32(1); i < count; i++ {
		if t.names[i] == name {
			return i
		}
	}
	t.nameMu.Lock()
	defer t.nameMu.Unlock()
	count = t.nameCount.Load()
	for i := uint32(1); i < count; i++ {
		if t.names[i] == name {
			return i
		}
	}
	if count == maxTraceNames {
		return 0
	}
	t.names[count] = name
	t.nameCount.Store(count + 1) // publishes names[count] to lock-free readers
	return count
}

// nameFor resolves an interned ID read from a slot.
func (t *Tracer) nameFor(id uint32) string {
	if id < t.nameCount.Load() {
		return t.names[id]
	}
	return overflowName
}

// Span records one completed span on the given track.
func (t *Tracer) Span(name string, tid int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(name, tid, 0, start.Sub(t.epoch).Nanoseconds(), end.Sub(start).Nanoseconds(), 0)
}

// SpanQ records one completed span tagged with a quantum sequence number —
// the cross-host correlation key: client RPC spans and server serve spans
// carrying the same sequence belong to the same synchronization quantum.
func (t *Tracer) SpanQ(name string, tid int32, start, end time.Time, seq uint64) {
	if t == nil {
		return
	}
	t.record(name, tid, 0, start.Sub(t.epoch).Nanoseconds(), end.Sub(start).Nanoseconds(), seq+1)
}

// CounterEvent records one instantaneous counter sample (Chrome ph "C") —
// e.g. the simulated power rail. value rides in the slot's dur field.
func (t *Tracer) CounterEvent(name string, tid int32, at time.Time, value int64) {
	if t == nil {
		return
	}
	t.record(name, tid, 1, at.Sub(t.epoch).Nanoseconds(), value, 0)
}

func (t *Tracer) record(name string, tid int32, cnt uint32, startNS, dur int64, q uint64) {
	if t == nil {
		return
	}
	id := t.nameID(name)
	idx := t.n.Add(1) - 1
	s := &t.slots[idx%uint64(len(t.slots))]
	s.seq.Add(1) // odd: write in flight
	s.name.Store(id)
	s.tid.Store(tid)
	s.cnt.Store(cnt)
	s.start.Store(startNS)
	s.dur.Store(dur)
	s.q.Store(q)
	s.seq.Add(1) // even: published
}

// EpochUnixNano returns the wall-clock instant span Start values are
// relative to — the anchor trace merging uses to place two hosts' spans on
// one absolute timeline. Returns 0 on nil.
func (t *Tracer) EpochUnixNano() int64 {
	if t == nil {
		return 0
	}
	return t.epoch.UnixNano()
}

// read returns a consistent snapshot of the slot, or ok=false if a writer
// held it across every retry (or it was claimed but never written).
func (t *Tracer) read(s *slot) (e Event, ok bool) {
	for attempt := 0; attempt < 4; attempt++ {
		s1 := s.seq.Load()
		if s1 == 0 || s1%2 != 0 {
			continue
		}
		e = Event{
			Name:    t.nameFor(s.name.Load()),
			TID:     s.tid.Load(),
			Start:   s.start.Load(),
			Dur:     s.dur.Load(),
			Counter: s.cnt.Load() != 0,
		}
		if q := s.q.Load(); q != 0 {
			e.Seq, e.HasSeq = q-1, true
		}
		if s.seq.Load() == s1 {
			return e, true
		}
	}
	return Event{}, false
}

// Len returns the number of events currently held (≤ capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.n.Load()
	if n > uint64(len(t.slots)) {
		return len(t.slots)
	}
	return int(n)
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	n := t.n.Load()
	if n <= uint64(len(t.slots)) {
		return 0
	}
	return n - uint64(len(t.slots))
}

// forEach calls fn with every readable event, oldest first. Safe against
// concurrent recording: slots a writer holds mid-store are skipped.
func (t *Tracer) forEach(fn func(Event) error) error {
	if t == nil {
		return nil
	}
	n := t.n.Load()
	capacity := uint64(len(t.slots))
	start := uint64(0)
	count := n
	if n > capacity {
		start = n % capacity
		count = capacity
	}
	for i := uint64(0); i < count; i++ {
		e, ok := t.read(&t.slots[(start+i)%capacity])
		if !ok {
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns up to max of the most recent readable events, oldest
// first — the span tail a blackbox dump embeds. Allocates; not a hot path.
func (t *Tracer) Snapshot(max int) []Event {
	if t == nil || max <= 0 {
		return nil
	}
	out := make([]Event, 0, t.Len())
	t.forEach(func(e Event) error {
		out = append(out, e)
		return nil
	})
	if len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// WriteChromeTrace renders the held events, oldest first, as a JSON array
// of Chrome trace "complete" events: {"name", "cat", "ph": "X", "pid",
// "tid", "ts", "dur"} with ts/dur in microseconds; sequence-tagged spans
// additionally carry {"args": {"seq": N}}. The output loads directly into
// Perfetto or chrome://tracing. Safe to call while spans are still being
// recorded.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "["); err != nil {
		return err
	}
	first := true
	err := t.forEach(func(e Event) error {
		sep := ",\n"
		if first {
			sep = "\n"
			first = false
		}
		return writeChromeEvent(w, sep, 1, e)
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n]\n")
	return err
}

// writeChromeEvent writes one event under the given pid: a complete ("X")
// span, or — for Counter events — an instantaneous counter ("C") sample
// whose value Perfetto renders as its own counter track (the power rail).
func writeChromeEvent(w io.Writer, sep string, pid int, e Event) error {
	if e.Counter {
		_, err := fmt.Fprintf(w,
			"%s  {\"name\": %s, \"cat\": \"cosim\", \"ph\": \"C\", \"pid\": %d, \"tid\": %d, \"ts\": %s, \"args\": {\"value\": %d}}",
			sep, strconv.Quote(e.Name), pid, e.TID, microseconds(e.Start), e.Dur)
		return err
	}
	args := ""
	if e.HasSeq {
		args = fmt.Sprintf(", \"args\": {\"seq\": %d}", e.Seq)
	}
	_, err := fmt.Fprintf(w,
		"%s  {\"name\": %s, \"cat\": \"cosim\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": %s, \"dur\": %s%s}",
		sep, strconv.Quote(e.Name), pid, e.TID, microseconds(e.Start), microseconds(e.Dur), args)
	return err
}

// microseconds formats nanoseconds as a decimal microsecond value with
// sub-microsecond precision, the unit Chrome trace events use.
func microseconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}
