package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/vec"
	"repro/internal/world"
)

func sampleTraj() []env.Telemetry {
	return []env.Telemetry{
		{TimeSec: 0, Pos: vec.V3(0, 0, 0), Vel: vec.V3(3, 4, 0)},
		{TimeSec: 0.5, Pos: vec.V3(1.5, 0.2, 1.5), Vel: vec.V3(3, 0, 0), Collided: true, CollisionCount: 1},
		{TimeSec: 1.0, Pos: vec.V3(3.0, -0.1, 1.5), MissionComplete: true},
	}
}

func TestWriteTrajectoryCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, sampleTraj()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want header + 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,frame,x_m") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "true,1,false") {
		t.Errorf("collision row = %q", lines[2])
	}
}

func TestWriteInferencesCSV(t *testing.T) {
	recs := []app.InferenceRecord{{
		Model: "ResNet14", ReqCycle: 100, RespCycle: 200, LatencySec: 1e-7,
		Output: dnn.Output{Lateral: [3]float32{0.1, 0.2, 0.7}},
		Cmd:    packet.Cmd{VForward: 3, VLateral: 0.5},
	}}
	var buf bytes.Buffer
	if err := WriteInferencesCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ResNet14") || !strings.Contains(out, "0.700000") {
		t.Errorf("csv = %q", out)
	}
}

// TestTrajectoryCSVRoundTrip parses the CSV back and checks every value
// survives the encode at the written precision.
func TestTrajectoryCSVRoundTrip(t *testing.T) {
	traj := sampleTraj()
	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, traj); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(traj)+1 {
		t.Fatalf("%d rows, want header + %d", len(rows), len(traj))
	}
	for i, tm := range traj {
		row := rows[i+1]
		if len(row) != 13 {
			t.Fatalf("row %d has %d fields", i, len(row))
		}
		for col, want := range map[int]float64{
			0: tm.TimeSec, 2: tm.Pos.X, 3: tm.Pos.Y, 4: tm.Pos.Z,
			5: tm.Vel.X, 6: tm.Vel.Y, 7: tm.Vel.Z, 8: tm.Yaw,
		} {
			got, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("row %d col %d: %v", i, col, err)
			}
			if diff := got - want; diff > 5e-5 || diff < -5e-5 {
				t.Errorf("row %d col %d = %v, want %v", i, col, got, want)
			}
		}
		if got, _ := strconv.ParseBool(row[10]); got != tm.Collided {
			t.Errorf("row %d collided = %v, want %v", i, got, tm.Collided)
		}
		if got, _ := strconv.ParseBool(row[12]); got != tm.MissionComplete {
			t.Errorf("row %d complete = %v, want %v", i, got, tm.MissionComplete)
		}
	}
}

// failWriter errors after n successful writes, exercising error surfacing.
type failWriter struct{ n int }

var errSink = errors.New("sink failed")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errSink
	}
	w.n--
	return len(p), nil
}

func TestCSVWriteErrorsSurfaced(t *testing.T) {
	traj := sampleTraj()
	if err := WriteTrajectoryCSV(&failWriter{}, traj); !errors.Is(err, errSink) {
		t.Errorf("trajectory error = %v, want sink failure", err)
	}
	var s Series
	s.Name = "a"
	s.Add(1, 2)
	if err := WriteSeriesCSV(&failWriter{}, []Series{s}); !errors.Is(err, errSink) {
		t.Errorf("series error = %v, want sink failure", err)
	}
	if err := WriteInferencesCSV(&failWriter{}, []app.InferenceRecord{{Model: "m"}}); !errors.Is(err, errSink) {
		t.Errorf("inferences error = %v, want sink failure", err)
	}
	if err := WriteSeriesJSON(&failWriter{}, []Series{s}); !errors.Is(err, errSink) {
		t.Errorf("series json error = %v, want sink failure", err)
	}
}

func TestWriteSeriesJSON(t *testing.T) {
	var a, b Series
	a.Name = "throughput"
	a.Add(1, 10)
	a.Add(2, 20)
	b.Name = "empty"
	var buf bytes.Buffer
	if err := WriteSeriesJSON(&buf, []Series{a, b}); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Series string    `json:"series"`
		X      []float64 `json:"x"`
		Y      []float64 `json:"y"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 || got[0].Series != "throughput" || got[1].Series != "empty" {
		t.Fatalf("series = %+v", got)
	}
	if len(got[0].X) != 2 || got[0].Y[1] != 20 {
		t.Errorf("points = %+v", got[0])
	}
	// Empty series must encode as [], not null.
	if !strings.Contains(buf.String(), `"x": []`) {
		t.Errorf("empty series not encoded as []:\n%s", buf.String())
	}
	if got[1].X == nil || got[1].Y == nil {
		t.Error("empty series decoded as nil")
	}
}

func TestRenderTrajectory(t *testing.T) {
	plot := RenderTrajectory(sampleTraj(), 0, 4, -2, 2, 40, 9)
	if !strings.Contains(plot, "*") {
		t.Error("no samples plotted")
	}
	if !strings.Contains(plot, "X") {
		t.Error("collision marker missing")
	}
	if !strings.Contains(plot, "y=+2.0") || !strings.Contains(plot, "y=-2.0") {
		t.Errorf("axis labels missing:\n%s", plot)
	}
	if RenderTrajectory(nil, 0, 0, 0, 0, 10, 10) != "" {
		t.Error("degenerate extent should return empty")
	}
}

// TestRenderTrajectoryBoundaries pins the clipping behavior: points exactly
// on the extent edges land in the outermost cells, points beyond are
// dropped, and degenerate parameters return empty output.
func TestRenderTrajectoryBoundaries(t *testing.T) {
	const cols, rows = 20, 7
	corners := []env.Telemetry{
		{Pos: vec.V3(0, -2, 0)}, // xMin,yMin → bottom-left
		{Pos: vec.V3(4, 2, 0)},  // xMax,yMax → top-right
	}
	plot := RenderTrajectory(corners, 0, 4, -2, 2, cols, rows)
	lines := strings.Split(plot, "\n")
	// Line 0 is the yMax label; grid rows are lines 1..rows.
	top, bottom := lines[1], lines[rows]
	if top[cols-1] != '*' {
		t.Errorf("xMax,yMax corner not plotted at top-right:\n%s", plot)
	}
	if bottom[0] != '*' {
		t.Errorf("xMin,yMin corner not plotted at bottom-left:\n%s", plot)
	}
	// A sample beyond the extent must be clipped, not wrapped.
	outside := []env.Telemetry{{Pos: vec.V3(5, 3, 0)}, {Pos: vec.V3(-1, -3, 0)}}
	if p := RenderTrajectory(outside, 0, 4, -2, 2, cols, rows); strings.Contains(p, "*") {
		t.Errorf("out-of-extent samples plotted:\n%s", p)
	}
	// Degenerate extents and sizes all yield empty strings.
	for _, p := range []string{
		RenderTrajectory(corners, 4, 4, -2, 2, cols, rows), // xMin == xMax
		RenderTrajectory(corners, 0, 4, 2, -2, cols, rows), // yMax < yMin
		RenderTrajectory(corners, 0, 4, -2, 2, 1, rows),    // cols < 2
		RenderTrajectory(corners, 0, 4, -2, 2, cols, 0),    // rows < 2
	} {
		if p != "" {
			t.Errorf("degenerate render not empty: %q", p)
		}
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "a"
	s.Add(1, 2)
	s.Add(3, 4)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, []Series{s}); err != nil {
		t.Fatal(err)
	}
	want := "series,x,y\na,1,2\na,3,4\n"
	if buf.String() != want {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestMeanSpeed(t *testing.T) {
	if MeanSpeed(nil) != 0 {
		t.Error("empty trajectory should be 0")
	}
	got := MeanSpeed(sampleTraj())
	want := (5.0 + 3.0 + 0.0) / 3
	if got != want {
		t.Errorf("mean speed = %v, want %v", got, want)
	}
	// A single sample is its own mean (3-4-5 triangle).
	single := []env.Telemetry{{Vel: vec.V3(3, 4, 0)}}
	if got := MeanSpeed(single); got != 5 {
		t.Errorf("single-sample mean = %v, want 5", got)
	}
}

func TestHealthStrip(t *testing.T) {
	strip := HealthStrip(obs.Summary{
		WallSeconds: 2, Quanta: 120, QuantaPerSec: 60,
		MeanQuantumSec: 0.016, P99QuantumSec: 0.031,
		RTLShare: 0.55, ExchangeShare: 0.05, EnvShare: 0.30,
		RPCRoundTrips: 240, RPCBytesOut: 4 << 10, RPCBytesIn: 3 << 20,
		BridgeRxHWM: 9216, BridgeTxHWM: 40, RxDrops: 1,
		Inferences: 118, MeanInferSec: 0.0021,
		TraceEvents: 600, TraceDropped: 0,
	})
	for _, want := range []string{
		"120 in 2.0s wall (60.0 quanta/s)",
		"mean 16.00ms  p99 31.00ms",
		"rtl 55%  exchange 5%  env 30%",
		"240 round-trips  4.0KiB out  3.0MiB in",
		"rx hwm 9.0KiB  tx hwm 40B  drops 1",
		"118 runs  mean 2.10ms",
		"600 events (0 overwritten)",
	} {
		if !strings.Contains(strip, want) {
			t.Errorf("health strip missing %q:\n%s", want, strip)
		}
	}
	// Zero summary: no trace line, no division artifacts.
	zero := HealthStrip(obs.Summary{})
	if strings.Contains(zero, "trace") {
		t.Errorf("zero summary should omit the trace line:\n%s", zero)
	}
	if !strings.Contains(zero, "quantum    mean 0  p99 0") {
		t.Errorf("zero durations should print 0:\n%s", zero)
	}
}

func TestWriteFlightStrip(t *testing.T) {
	m := world.Tunnel()
	traj := []env.Telemetry{
		{Pos: vec.V3(1, 0, 1.5)},
		{Pos: vec.V3(10, 0.5, 1.5), Yaw: 0.1},
		{Pos: vec.V3(20, -0.5, 1.5), Yaw: -0.1},
	}
	var buf bytes.Buffer
	if err := WriteFlightStrip(&buf, m, traj, 3, 32, 24); err != nil {
		t.Fatal(err)
	}
	want := "P5\n96 24\n255\n"
	if got := buf.String()[:len(want)]; got != want {
		t.Errorf("PGM header = %q", got)
	}
	if buf.Len() != len(want)+96*24 {
		t.Errorf("strip size = %d", buf.Len())
	}
	if err := WriteFlightStrip(&buf, m, nil, 3, 32, 24); err == nil {
		t.Error("empty trajectory accepted")
	}
	// More frames than samples clamps.
	if err := WriteFlightStrip(&buf, m, traj[:1], 5, 16, 12); err != nil {
		t.Errorf("clamped strip failed: %v", err)
	}
}
