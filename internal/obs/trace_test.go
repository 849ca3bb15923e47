package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// chromeEvent mirrors the complete-event fields Perfetto/chrome://tracing
// require. Pointers distinguish "absent" from zero for validation.
type chromeEvent struct {
	Name *string  `json:"name"`
	Cat  string   `json:"cat"`
	Ph   *string  `json:"ph"`
	PID  *int     `json:"pid"`
	TID  *int     `json:"tid"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
}

// validateChromeTrace asserts the output is a JSON array of complete
// events with every required field — the acceptance contract for -trace.
// Metadata events ("M": process_name, rose_run) are validated lightly and
// filtered out, so callers assert against complete events only.
func validateChromeTrace(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	complete := events[:0]
	for i, e := range events {
		if e.Name == nil || e.Ph == nil || e.PID == nil {
			t.Fatalf("event %d missing required fields: %+v", i, e)
		}
		if *e.Ph == "M" {
			continue
		}
		if e.TID == nil || e.Ts == nil || e.Dur == nil {
			t.Fatalf("event %d missing required fields: %+v", i, e)
		}
		if *e.Ph != "X" {
			t.Fatalf("event %d ph = %q, want complete event \"X\"", i, *e.Ph)
		}
		if *e.Dur < 0 {
			t.Fatalf("event %d has negative dur %v", i, *e.Dur)
		}
		complete = append(complete, e)
	}
	return complete
}

func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer(16)
	base := time.Now()
	tr.Span("rtl.quantum", TrackSync, base, base.Add(2*time.Millisecond))
	tr.Span("env.quantum", TrackRPC, base, base.Add(3*time.Millisecond))
	tr.Span("exchange", TrackSync, base.Add(3*time.Millisecond), base.Add(3100*time.Microsecond))

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events := validateChromeTrace(t, buf.Bytes())
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	if *events[0].Name != "rtl.quantum" || *events[0].TID != TrackSync {
		t.Errorf("event 0 = %+v", events[0])
	}
	if got := *events[0].Dur; got < 1999 || got > 2001 {
		t.Errorf("rtl dur = %v µs, want ~2000", got)
	}
	if *events[1].TID != TrackRPC {
		t.Errorf("event 1 tid = %d, want %d", *events[1].TID, TrackRPC)
	}
}

// TestCoreSpansNestUnderQuantum checks that every synchronizer phase span
// lands on the synchronizer track inside its quantum's span, so Perfetto
// draws env.quantum (both pieces), rtl.quantum and exchange as children of
// quantum, tagged with the quantum's sequence.
func TestCoreSpansNestUnderQuantum(t *testing.T) {
	s := New(16)
	c := s.Core
	q0 := c.BeginQuantum()
	c.ObserveExchange(q0)
	t0 := c.Start()
	t1 := c.Start()
	c.ObserveRTL(t1)
	c.ObserveEnv(t0, t1, c.Start())
	c.EndQuantum(q0, TelemetrySample{}, false)

	events := s.Tracer.Snapshot(16)
	var quantum Event
	envSpans := 0
	for _, e := range events {
		if e.Name == "quantum" {
			quantum = e
		}
	}
	if quantum.Name == "" {
		t.Fatalf("no quantum span in %+v", events)
	}
	for _, e := range events {
		if e.TID != TrackSync {
			t.Errorf("%s on tid %d, want %d", e.Name, e.TID, TrackSync)
		}
		if e.Start < quantum.Start || e.Start+e.Dur > quantum.Start+quantum.Dur {
			t.Errorf("%s [%d, +%d] outside quantum [%d, +%d]", e.Name, e.Start, e.Dur, quantum.Start, quantum.Dur)
		}
		if !e.HasSeq || e.Seq != quantum.Seq {
			t.Errorf("%s seq = %d/%v, want %d", e.Name, e.Seq, e.HasSeq, quantum.Seq)
		}
		if e.Name == "env.quantum" {
			envSpans++
		}
	}
	if len(events) != 5 || envSpans != 2 {
		t.Errorf("%d spans (%d env.quantum), want 5 (2)", len(events), envSpans)
	}
}

func TestTracerEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer(4).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if events := validateChromeTrace(t, buf.Bytes()); len(events) != 0 {
		t.Errorf("empty tracer exported %d events", len(events))
	}
	// A nil tracer must still write a valid (empty) trace and discard spans.
	var nilT *Tracer
	nilT.Span("x", 1, time.Now(), time.Now())
	buf.Reset()
	if err := nilT.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(8)
	base := time.Now()
	for i := 0; i < 20; i++ {
		tr.Span(fmt.Sprintf("s%d", i), 1, base.Add(time.Duration(i)*time.Millisecond),
			base.Add(time.Duration(i)*time.Millisecond+time.Microsecond))
	}
	if tr.Len() != 8 {
		t.Errorf("Len = %d, want capacity 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Errorf("Dropped = %d, want 12", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events := validateChromeTrace(t, buf.Bytes())
	if len(events) != 8 {
		t.Fatalf("%d events, want 8", len(events))
	}
	// Oldest-first: the ring holds the last 8 spans, s12..s19.
	if *events[0].Name != "s12" || *events[7].Name != "s19" {
		t.Errorf("window = %q..%q, want s12..s19", *events[0].Name, *events[7].Name)
	}
	for i := 1; i < len(events); i++ {
		if *events[i].Ts < *events[i-1].Ts {
			t.Errorf("events out of order at %d", i)
		}
	}
}

func TestTracerConcurrentExport(t *testing.T) {
	// The /trace.json endpoint exports while the run is still recording:
	// WriteChromeTrace must race-cleanly skip or retry slots a writer
	// holds, and every event it does emit must be well-formed.
	tr := NewTracer(64) // small ring: exporters see active wrap-around
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := time.Now()
				tr.Span(fmt.Sprintf("w%d.s%d", tid, i%8), tid, s, s.Add(time.Microsecond))
			}
		}(int32(g + 1))
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		validateChromeTrace(t, buf.Bytes())
	}
	close(stop)
	wg.Wait()
}

func TestTracerNameIntern(t *testing.T) {
	tr := NewTracer(4)
	base := time.Now()
	tr.Span("a", 1, base, base.Add(time.Microsecond))
	tr.Span("b", 1, base, base.Add(time.Microsecond))
	tr.Span("a", 1, base, base.Add(time.Microsecond))
	if got := tr.nameCount.Load(); got != 3 { // overflow marker + a + b
		t.Errorf("interned %d names, want 3", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events := validateChromeTrace(t, buf.Bytes())
	if len(events) != 3 || *events[0].Name != "a" || *events[1].Name != "b" || *events[2].Name != "a" {
		t.Errorf("events = %+v", events)
	}
}

func TestTracerConcurrent(t *testing.T) {
	// Spans land from concurrent missions, RPC clients and the env server
	// at once; this is the -race exercise of the atomic slot claim.
	tr := NewTracer(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := time.Now()
				tr.Span("span", tid, s, s.Add(time.Microsecond))
			}
		}(int32(g + 1))
	}
	wg.Wait()
	if tr.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
}

func TestSuiteMetaInTrace(t *testing.T) {
	s := New(16)
	s.SetMeta("gemm_kernel", "avx2")
	s.SetMeta("precision", "fp32")
	s.SetMeta("precision", "int8") // overwrite keeps one entry
	s.SetMeta("", "dropped")
	if got := s.Meta(); len(got) != 2 ||
		got[0] != [2]string{"gemm_kernel", "avx2"} ||
		got[1] != [2]string{"precision", "int8"} {
		t.Fatalf("Meta() = %v", got)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf, "rose-sim"); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	found := false
	for _, e := range events {
		if e["name"] != "rose_run" {
			continue
		}
		found = true
		args := e["args"].(map[string]any)
		if args["gemm_kernel"] != "avx2" || args["precision"] != "int8" {
			t.Errorf("rose_run args = %v", args)
		}
	}
	if !found {
		t.Error("no rose_run event in trace")
	}

	// Nil suite: SetMeta/Meta are no-ops, like the rest of the suite.
	var nilSuite *Suite
	nilSuite.SetMeta("k", "v")
	if nilSuite.Meta() != nil {
		t.Error("nil suite has metadata")
	}
}
