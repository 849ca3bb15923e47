package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/packet"
	"repro/internal/render"
	"repro/internal/sensor"
	"repro/internal/soc"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindQuantum      spanKind = iota // one Synchronizer.StepQuanta(1) call
	kindSoCStep                      // core.RTL Step: the SoC engine, forward pass included
	kindBridge                       // core.RTL Push + Pull: the bridge exchange
	kindEnvStep                      // env.Env StepFrames: physics and flight controller
	kindEnvTelemetry                 // env.Env Telemetry
	kindEnvRPC                       // env.Env sensor reads, actuation and batched fetches
	kindRender                       // FrameBytesInto / GetImage: the ray-cast camera frame
	numKinds
)

var kindNames = [numKinds]string{
	"core.quantum", "soc.step", "soc.bridge", "env.step", "env.telemetry", "env.rpc", "render.frame",
}

// lane is the trace-viewer thread a kind is drawn on: env.step and
// env.telemetry run on the synchronizer's overlap worker, concurrently with
// soc.step, so they get their own lane to keep every lane properly nested.
func (k spanKind) lane() int {
	if k == kindEnvStep || k == kindEnvTelemetry {
		return 2
	}
	return 1
}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent indexes the enclosing span in the same tracer (-1 for a quantum).
type span struct {
	start, end int64
	parent     int32
	quantum    int32
	kind       spanKind
}

// capturedFrame is a camera frame the mission's controller received, kept
// for the forward-pass replay.
type capturedFrame struct {
	w, h int
	pix  []byte
}

// tracer records the spans of one mission in memory. The synchronizer calls
// the environment from its overlap worker while the RTL runs on the driving
// goroutine, so appends are serialized by mu.
type tracer struct {
	epoch   time.Time
	mission int

	mu      sync.Mutex
	spans   []span
	open    int32 // index of the quantum span in progress
	quantum int32
	frames  int // camera frames served (local renders plus remote CamReqs)

	captured []capturedFrame
}

// A tracer keeps every captureEvery-th camera frame, up to captureCap, for
// the forward-pass replay.
const (
	captureEvery = 3
	captureCap   = 16
)

func newTracer(epoch time.Time, mission, maxQuanta int) *tracer {
	return &tracer{
		epoch:   epoch,
		mission: mission,
		spans:   make([]span, 0, 12*maxQuanta),
		open:    -1,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginQuantum opens the quantum span that the following spans nest under.
func (t *tracer) beginQuantum() {
	t.mu.Lock()
	t.open = int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), end: -1, parent: -1, quantum: t.quantum, kind: kindQuantum})
	t.mu.Unlock()
}

// endQuantum closes the open quantum span and returns its duration.
func (t *tracer) endQuantum() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[t.open]
	s.end = t.now()
	t.quantum++
	return s.end - s.start
}

// record appends a child span of the open quantum that started at start.
func (t *tracer) record(k spanKind, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, parent: t.open, quantum: t.quantum, kind: k})
	t.mu.Unlock()
}

// capture counts a served camera frame and keeps a copy of some.
func (t *tracer) capture(w, h int, pix []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.frames++
	if len(t.captured) < captureCap && (t.frames-1)%captureEvery == 0 {
		t.captured = append(t.captured, capturedFrame{w: w, h: h, pix: append([]byte(nil), pix...)})
	}
}

// frameByter mirrors the synchronizer's zero-copy camera interface.
type frameByter interface {
	FrameBytesInto(dst []byte) (pix []byte, w, h int)
}

// tracedEnv times every env.Env call the synchronizer makes.
type tracedEnv struct {
	inner env.Env
	tr    *tracer
}

func (e *tracedEnv) StepFrames(n int) error {
	t0 := e.tr.now()
	err := e.inner.StepFrames(n)
	e.tr.record(kindEnvStep, t0)
	return err
}

func (e *tracedEnv) FrameRate() float64 { return e.inner.FrameRate() }

func (e *tracedEnv) GetImage() (*render.Image, error) {
	t0 := e.tr.now()
	img, err := e.inner.GetImage()
	e.tr.record(kindRender, t0)
	if err == nil {
		e.tr.capture(img.W, img.H, img.Bytes())
	}
	return img, err
}

func (e *tracedEnv) GetIMU() (sensor.IMUReading, error) {
	t0 := e.tr.now()
	r, err := e.inner.GetIMU()
	e.tr.record(kindEnvRPC, t0)
	return r, err
}

func (e *tracedEnv) GetDepth() (float64, error) {
	t0 := e.tr.now()
	d, err := e.inner.GetDepth()
	e.tr.record(kindEnvRPC, t0)
	return d, err
}

func (e *tracedEnv) SetVelocity(forward, lateral, yawRate float64) error {
	t0 := e.tr.now()
	err := e.inner.SetVelocity(forward, lateral, yawRate)
	e.tr.record(kindEnvRPC, t0)
	return err
}

func (e *tracedEnv) Reset(x, y, z, yaw float64) error { return e.inner.Reset(x, y, z, yaw) }

func (e *tracedEnv) Telemetry() (env.Telemetry, error) {
	t0 := e.tr.now()
	tm, err := e.inner.Telemetry()
	e.tr.record(kindEnvTelemetry, t0)
	return tm, err
}

// batcherPart adds env.SensorBatcher to a traced environment whose inner
// value has it. A remote client renders server-side, so each fetched camera
// frame is counted and captured here.
type batcherPart struct {
	tr *tracer
	b  env.SensorBatcher
}

func (p batcherPart) FetchSensors(reqs []packet.Type) ([]packet.Packet, error) {
	t0 := p.tr.now()
	pkts, err := p.b.FetchSensors(reqs)
	p.tr.record(kindEnvRPC, t0)
	for _, pk := range pkts {
		if pk.Type != packet.CamData {
			continue
		}
		if f, ferr := packet.UnmarshalCamFrame(pk); ferr == nil {
			p.tr.capture(f.W, f.H, f.Pix)
		}
	}
	return pkts, err
}

// frameBytePart adds the zero-copy camera path to a traced environment
// whose inner value has it.
type frameBytePart struct {
	tr *tracer
	fb frameByter
}

func (p frameBytePart) FrameBytesInto(dst []byte) ([]byte, int, int) {
	t0 := p.tr.now()
	pix, w, h := p.fb.FrameBytesInto(dst)
	p.tr.record(kindRender, t0)
	p.tr.capture(w, h, pix)
	return pix, w, h
}

// wrapEnv returns a traced view of e that implements env.SensorBatcher and
// FrameBytesInto exactly when e does, so the synchronizer takes the same
// path through the wrapper as without it.
func wrapEnv(e env.Env, tr *tracer) env.Env {
	base := &tracedEnv{inner: e, tr: tr}
	b, isBatcher := e.(env.SensorBatcher)
	fb, isFB := e.(frameByter)
	switch {
	case isBatcher && isFB:
		return struct {
			*tracedEnv
			batcherPart
			frameBytePart
		}{base, batcherPart{tr, b}, frameBytePart{tr, fb}}
	case isBatcher:
		return struct {
			*tracedEnv
			batcherPart
		}{base, batcherPart{tr, b}}
	case isFB:
		return struct {
			*tracedEnv
			frameBytePart
		}{base, frameBytePart{tr, fb}}
	}
	return base
}

// tracedRTL times the RTL calls that do work: Step and the bridge exchange.
type tracedRTL struct {
	inner core.RTL
	tr    *tracer
}

func (r *tracedRTL) Step(cycles uint64) (uint64, error) {
	t0 := r.tr.now()
	n, err := r.inner.Step(cycles)
	r.tr.record(kindSoCStep, t0)
	return n, err
}

func (r *tracedRTL) Push(pkts []packet.Packet) error {
	t0 := r.tr.now()
	err := r.inner.Push(pkts)
	r.tr.record(kindBridge, t0)
	return err
}

func (r *tracedRTL) Pull() ([]packet.Packet, error) {
	t0 := r.tr.now()
	pkts, err := r.inner.Pull()
	r.tr.record(kindBridge, t0)
	return pkts, err
}

func (r *tracedRTL) Cycle() uint64    { return r.inner.Cycle() }
func (r *tracedRTL) Stats() soc.Stats { return r.inner.Stats() }
func (r *tracedRTL) Done() bool       { return r.inner.Done() }

type energyPart struct{ er core.EnergyRTL }

func (p energyPart) EnergyBreakdown() soc.EnergyBreakdown { return p.er.EnergyBreakdown() }

// wrapRTL returns a traced view of r that implements core.EnergyRTL exactly
// when r does.
func wrapRTL(r core.RTL, tr *tracer) core.RTL {
	base := &tracedRTL{inner: r, tr: tr}
	if er, ok := r.(core.EnergyRTL); ok {
		return struct {
			*tracedRTL
			energyPart
		}{base, energyPart{er}}
	}
	return base
}

// covered returns how much of [lo, hi] the union of the intervals covers.
// Overlapping intervals (env.step running concurrently with soc.step) are
// counted once.
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range clipped {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTotals accumulates span statistics over traced missions.
type layerTotals struct {
	quanta      int64
	quantumNs   int64
	selfNs      int64 // quantum time not covered by any child span
	overlapNs   int64 // env step + telemetry finishing after soc.step returned
	calls       [numKinds]int64
	ns          [numKinds]int64
	frames      int64
	inferences  int64
	batchRounds uint64
}

// add folds one tracer's spans into the totals.
func (lt *layerTotals) add(t *tracer) {
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.kind != kindQuantum {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	var iv [][2]int64
	for qi, q := range t.spans {
		if q.kind != kindQuantum || q.end < 0 {
			continue
		}
		lt.quanta++
		lt.calls[kindQuantum]++
		lt.ns[kindQuantum] += q.end - q.start
		iv = iv[:0]
		var socEnd, envEnd int64 = -1, -1
		for _, ci := range children[int32(qi)] {
			c := t.spans[ci]
			iv = append(iv, [2]int64{c.start, c.end})
			lt.calls[c.kind]++
			lt.ns[c.kind] += c.end - c.start
			switch c.kind {
			case kindSoCStep:
				socEnd = max(socEnd, c.end)
			case kindEnvStep, kindEnvTelemetry:
				envEnd = max(envEnd, c.end)
			}
		}
		lt.selfNs += q.end - q.start - covered(q.start, q.end, iv)
		if socEnd >= 0 && envEnd > socEnd {
			lt.overlapNs += envEnd - socEnd
		}
	}
	lt.frames += int64(t.frames)
}

// perQuantumUs returns a kind's busy time per quantum in microseconds.
func (lt *layerTotals) perQuantumUs(k spanKind) float64 {
	return ratio(float64(lt.ns[k])/1e3, float64(lt.quanta))
}

// perCallUs returns a kind's mean call time in microseconds.
func (lt *layerTotals) perCallUs(k spanKind) float64 {
	return ratio(float64(lt.ns[k])/1e3, float64(lt.calls[k]))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeChromeTrace writes the tracers' spans as Chrome trace-event JSON
// (one process per mission), which Perfetto and chrome://tracing open.
// Quantum IDs and parent indices travel in each event's args.
func writeChromeTrace(path string, stamp map[string]string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	meta, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "{\"otherData\": %s,\n\"traceEvents\": [", meta)
	sep := "\n"
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.end < 0 {
				continue
			}
			fmt.Fprintf(w, "%s{\"name\":%q,\"cat\":\"cosimbench\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"quantum\":%d,\"parent\":%d}}",
				sep, kindNames[s.kind], t.mission, s.kind.lane(), usString(s.start), usString(s.end-s.start), s.quantum, s.parent)
			sep = ",\n"
		}
	}
	fmt.Fprintf(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace file: %w", err)
	}
	return f.Close()
}

func usString(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
