package main

import (
	"net"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/packet"
	"repro/internal/render"
	"repro/internal/sensor"
	"repro/internal/soc"
	"repro/internal/world"
)

func TestCoveredMergesOverlaps(t *testing.T) {
	iv := [][2]int64{{10, 60}, {20, 80}, {0, 5}, {70, 75}, {90, 120}}
	if got := covered(0, 100, iv); got != 5+70+10 {
		t.Errorf("covered = %d, want 85", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered of no intervals = %d", got)
	}
}

// A quantum whose env.step runs concurrently with soc.step: self time is
// the quantum minus the union of its children, not minus their sum.
func TestSelfTimeWithConcurrentChildren(t *testing.T) {
	tr := newTracer(time.Now(), 1, 1)
	tr.spans = []span{
		{start: 0, end: 100, parent: -1, kind: kindQuantum},
		{start: 0, end: 5, parent: 0, kind: kindBridge},
		{start: 10, end: 60, parent: 0, kind: kindSoCStep},
		{start: 20, end: 80, parent: 0, kind: kindEnvStep},
		{start: 80, end: 85, parent: 0, kind: kindEnvTelemetry},
		{start: 200, end: 300, parent: -1, quantum: 1, kind: kindQuantum},
		{start: 210, end: 290, parent: 5, quantum: 1, kind: kindSoCStep},
	}
	var lt layerTotals
	lt.add(tr)
	if lt.quanta != 2 {
		t.Fatalf("quanta = %d, want 2", lt.quanta)
	}
	// Quantum 0: children cover [0,5] and [10,85] → self 20. Quantum 1:
	// self 20. A sum of child durations would give a negative self time.
	if lt.selfNs != 40 {
		t.Errorf("self = %d ns, want 40", lt.selfNs)
	}
	// env.telemetry ends 25 ns after soc.step returns in quantum 0.
	if lt.overlapNs != 25 {
		t.Errorf("overlap wait = %d ns, want 25", lt.overlapNs)
	}
	if got := 100 * ratio(float64(lt.selfNs), float64(lt.ns[kindQuantum])); got != 20 {
		t.Errorf("residual = %v%%, want 20%%", got)
	}
	if lt.ns[kindSoCStep] != 130 || lt.calls[kindSoCStep] != 2 {
		t.Errorf("soc.step = %d ns over %d calls", lt.ns[kindSoCStep], lt.calls[kindSoCStep])
	}
}

type fakeEnv struct{}

func (fakeEnv) StepFrames(int) error                        { return nil }
func (fakeEnv) FrameRate() float64                          { return 60 }
func (fakeEnv) GetImage() (*render.Image, error)            { return render.NewImage(2, 1), nil }
func (fakeEnv) GetIMU() (sensor.IMUReading, error)          { return sensor.IMUReading{}, nil }
func (fakeEnv) GetDepth() (float64, error)                  { return 1, nil }
func (fakeEnv) SetVelocity(float64, float64, float64) error { return nil }
func (fakeEnv) Reset(float64, float64, float64, float64) error {
	return nil
}
func (fakeEnv) Telemetry() (env.Telemetry, error) { return env.Telemetry{}, nil }

type batchingEnv struct{ fakeEnv }

func (batchingEnv) FetchSensors(reqs []packet.Type) ([]packet.Packet, error) {
	return make([]packet.Packet, len(reqs)), nil
}

type framingEnv struct{ fakeEnv }

func (framingEnv) FrameBytesInto(dst []byte) ([]byte, int, int) { return append(dst[:0], 7, 9), 2, 1 }

type fullEnv struct{ fakeEnv }

func (fullEnv) FetchSensors(reqs []packet.Type) ([]packet.Packet, error) {
	return batchingEnv{}.FetchSensors(reqs)
}

func (fullEnv) FrameBytesInto(dst []byte) ([]byte, int, int) { return framingEnv{}.FrameBytesInto(dst) }

type fakeRTL struct{}

func (fakeRTL) Step(c uint64) (uint64, error)  { return c, nil }
func (fakeRTL) Push([]packet.Packet) error     { return nil }
func (fakeRTL) Pull() ([]packet.Packet, error) { return nil, nil }
func (fakeRTL) Cycle() uint64                  { return 0 }
func (fakeRTL) Stats() soc.Stats               { return soc.Stats{} }
func (fakeRTL) Done() bool                     { return false }

type energyRTL struct{ fakeRTL }

func (energyRTL) EnergyBreakdown() soc.EnergyBreakdown { return soc.EnergyBreakdown{} }

func TestWrappersExposeOptionalInterfacesExactly(t *testing.T) {
	full := fullEnv{}
	for _, e := range []env.Env{fakeEnv{}, batchingEnv{}, framingEnv{}, full} {
		w := wrapEnv(e, newTracer(time.Now(), 1, 1))
		_, innerB := e.(env.SensorBatcher)
		_, wrapB := w.(env.SensorBatcher)
		_, innerF := e.(frameByter)
		_, wrapF := w.(frameByter)
		if innerB != wrapB || innerF != wrapF {
			t.Errorf("%T: batcher %v→%v, frameByter %v→%v", e, innerB, wrapB, innerF, wrapF)
		}
	}
	for _, r := range []core.RTL{fakeRTL{}, energyRTL{}} {
		w := wrapRTL(r, newTracer(time.Now(), 1, 1))
		_, inner := r.(core.EnergyRTL)
		_, wrapped := w.(core.EnergyRTL)
		if inner != wrapped {
			t.Errorf("%T: EnergyRTL %v→%v", r, inner, wrapped)
		}
	}
}

func TestWrappedCallsNestUnderTheQuantum(t *testing.T) {
	tr := newTracer(time.Now(), 1, 4)
	e := wrapEnv(fullEnv{}, tr)
	r := wrapRTL(fakeRTL{}, tr)
	tr.beginQuantum()
	r.Pull()
	e.(frameByter).FrameBytesInto(nil)
	e.(env.SensorBatcher).FetchSensors([]packet.Type{packet.IMUReq})
	e.SetVelocity(1, 0, 0)
	r.Step(10)
	e.StepFrames(1)
	e.Telemetry()
	tr.endQuantum()

	want := []spanKind{kindQuantum, kindBridge, kindRender, kindEnvRPC, kindEnvRPC, kindSoCStep, kindEnvStep, kindEnvTelemetry}
	if len(tr.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(tr.spans), len(want))
	}
	for i, s := range tr.spans {
		wantParent := int32(0)
		if i == 0 {
			wantParent = -1
		}
		if s.kind != want[i] || s.parent != wantParent || s.quantum != 0 || s.end < s.start {
			t.Errorf("span %d = %+v, want kind %s under parent %d", i, s, kindNames[want[i]], wantParent)
		}
	}
	if tr.frames != 1 || len(tr.captured) != 1 || string(tr.captured[0].pix) != "\x07\x09" {
		t.Errorf("frames=%d captured=%v", tr.frames, tr.captured)
	}
}

// The environments and RTL the benchmark wraps: the in-process simulator
// (zero-copy camera, no batcher), the remote client (batcher, no zero-copy
// camera) and the SoC machine (energy view).
func TestWrappersMatchRealLayers(t *testing.T) {
	sim, err := env.New(env.DefaultConfig(world.Tunnel()))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := env.NewServerOn(sim, ln)
	go srv.Serve()
	defer srv.Close()
	client, err := env.DialWith(srv.Addr(), env.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, e := range []env.Env{sim, client} {
		w := wrapEnv(e, newTracer(time.Now(), 1, 1))
		_, innerB := e.(env.SensorBatcher)
		_, wrapB := w.(env.SensorBatcher)
		_, innerF := e.(frameByter)
		_, wrapF := w.(frameByter)
		if innerB != wrapB || innerF != wrapF {
			t.Errorf("%T: batcher %v→%v, frameByter %v→%v", e, innerB, wrapB, innerF, wrapF)
		}
	}
	mach := soc.NewMachine(config.A.SoCConfig(), func(rt *soc.Runtime) error { return nil })
	defer mach.Close()
	if _, ok := wrapRTL(mach, newTracer(time.Now(), 1, 1)).(core.EnergyRTL); !ok {
		t.Error("wrapped soc.Machine lost core.EnergyRTL")
	}
}

// The synchronizer's overlap worker records env spans while the driving
// goroutine records RTL spans; both land under the open quantum.
func TestTracerConcurrentRecording(t *testing.T) {
	const quanta = 50
	tr := newTracer(time.Now(), 1, quanta)
	e := wrapEnv(fakeEnv{}, tr)
	r := wrapRTL(fakeRTL{}, tr)
	for q := 0; q < quanta; q++ {
		tr.beginQuantum()
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.StepFrames(1)
			e.Telemetry()
		}()
		r.Step(1)
		<-done
		tr.endQuantum()
	}
	var lt layerTotals
	lt.add(tr)
	if lt.quanta != quanta || lt.calls[kindEnvStep] != quanta || lt.calls[kindSoCStep] != quanta {
		t.Errorf("quanta=%d env.step=%d soc.step=%d, want %d each", lt.quanta, lt.calls[kindEnvStep], lt.calls[kindSoCStep], quanta)
	}
	for _, s := range tr.spans {
		if s.kind != kindQuantum && tr.spans[s.parent].quantum != s.quantum {
			t.Fatalf("span %+v recorded under quantum %d", s, tr.spans[s.parent].quantum)
		}
	}
}
