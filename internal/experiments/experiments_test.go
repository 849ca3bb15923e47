package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/ort"
)

// TestMain shrinks the training registry so experiment plumbing tests run in
// seconds; accuracy quality is validated separately (and recorded in
// EXPERIMENTS.md from full runs).
func TestMain(m *testing.M) {
	dnn.RegistryTrainPerClass = 30
	dnn.RegistryValPerClass = 15
	os.Exit(m.Run())
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("figure99", Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(IDs()) != 14 {
		t.Errorf("IDs() = %v", IDs())
	}
	for _, id := range IDs() {
		if id == "" {
			t.Error("empty experiment id")
		}
	}
}

func TestRunMissionValidation(t *testing.T) {
	if _, err := RunMission(MissionSpec{Map: "mars", Model: "ResNet6"}); err == nil {
		t.Error("unknown map accepted")
	}
	if _, err := RunMission(MissionSpec{Map: "tunnel", Model: "ResNet99"}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestTable3Report(t *testing.T) {
	r, err := Table3(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table3" {
		t.Errorf("id = %q", r.ID)
	}
	// Header + one row per variant.
	if len(r.Lines) != 1+len(dnn.Variants()) {
		t.Errorf("%d lines", len(r.Lines))
	}
	if len(r.Series) != 4 {
		t.Errorf("%d series", len(r.Series))
	}
	// Latency series increase monotonically with model size.
	lat := r.Series[0]
	for i := 1; i < len(lat.Y); i++ {
		if lat.Y[i] <= lat.Y[i-1] {
			t.Errorf("BOOM latency not increasing: %v", lat.Y)
		}
	}
	// Rocket is slower than BOOM for every model.
	for i := range lat.Y {
		if r.Series[1].Y[i] <= lat.Y[i] {
			t.Errorf("Rocket latency %v not above BOOM %v", r.Series[1].Y[i], lat.Y[i])
		}
	}
}

func TestRunMissionQuick(t *testing.T) {
	// One short closed-loop mission end to end through the harness.
	out, err := RunMission(MissionSpec{
		Map:       "tunnel",
		Model:     "ResNet6",
		HW:        cfgA(t),
		VForward:  3,
		MaxSimSec: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.SimSeconds <= 0 || out.Result.Cycles == 0 {
		t.Errorf("empty result: %+v", out.Result)
	}
	if len(out.Inferences) == 0 {
		t.Error("no inferences logged")
	}
	if len(out.Result.Trajectory) == 0 {
		t.Error("no trajectory recorded")
	}
}

func TestDynamicMissionQuick(t *testing.T) {
	out, err := RunMission(MissionSpec{
		Map:        "s-shape",
		Model:      "ResNet14",
		SmallModel: "ResNet6",
		HW:         cfgA(t),
		VForward:   9,
		MaxSimSec:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Inferences) == 0 {
		t.Error("no inferences logged")
	}
	// The fallback count must be consistent with the records.
	n := 0
	for _, r := range out.Inferences {
		if r.UsedFallback {
			n++
		}
	}
	if out.Fallbacks() != n {
		t.Errorf("Fallbacks() = %d, want %d", out.Fallbacks(), n)
	}
}

func TestFigure15Quick(t *testing.T) {
	r, err := Figure15(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	model := r.Series[0]
	if len(model.Y) < 3 {
		t.Fatalf("too few points: %v", model)
	}
	// Modeled FPGA throughput rises with granularity.
	for i := 1; i < len(model.Y); i++ {
		if model.Y[i] <= model.Y[i-1] {
			t.Errorf("modeled throughput not increasing: %v", model.Y)
		}
	}
	// Measured Go throughput is positive everywhere.
	for _, v := range r.Series[1].Y {
		if v <= 0 {
			t.Errorf("non-positive measured throughput: %v", r.Series[1].Y)
		}
	}
}

func cfgA(t *testing.T) config.HW {
	t.Helper()
	return config.A
}

func TestAblationSyncQuick(t *testing.T) {
	r, err := AblationSync(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	lat := r.Series[0]
	if len(lat.Y) < 2 {
		t.Fatal("too few points")
	}
	// Loose exchange must show higher request latency than lockstep.
	if lat.Y[len(lat.Y)-1] <= lat.Y[0] {
		t.Errorf("loose-exchange latency %v not above lockstep %v", lat.Y[len(lat.Y)-1], lat.Y[0])
	}
}

func TestAblationQueueQuick(t *testing.T) {
	r, err := AblationQueue(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	inf := r.Series[0]
	// The undersized queue drops every camera frame: zero inferences.
	if inf.Y[0] != 0 {
		t.Errorf("undersized queue completed %v inferences, want 0", inf.Y[0])
	}
	if inf.Y[len(inf.Y)-1] < 10 {
		t.Errorf("adequate queue completed only %v inferences", inf.Y[len(inf.Y)-1])
	}
}

// TestRunMissionsParallelByteIdentical runs the same sweep through the
// worker pool (ForEach, via Options.runAll) with one worker and with
// several, and requires the derived report lines — formatted exactly as the
// figure harnesses format theirs — to be byte-identical, along with every
// trajectory sample bit.
func TestRunMissionsParallelByteIdentical(t *testing.T) {
	var specs []MissionSpec
	for _, yaw := range []float64{-15, 0, 10, 20} {
		specs = append(specs, MissionSpec{
			Map: "tunnel", Model: "ResNet6", HW: config.A,
			VForward: 3, StartYawDeg: yaw, MaxSimSec: 4,
		})
	}
	lines := func(outs []*MissionOutcome) []string {
		var ls []string
		for i, out := range outs {
			ls = append(ls, fmt.Sprintf("yaw %+3.0f°: completed=%-5v mission=%6.2fs collisions=%d infs=%d meanLat=%.6fms",
				specs[i].StartYawDeg, out.Result.Completed, out.Result.MissionTimeSec,
				out.Result.Collisions, len(out.Inferences), meanLatencyMS(out)))
		}
		return ls
	}
	serial, err := Options{Workers: 1}.runAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	want := lines(serial)
	for _, workers := range []int{2, 3, len(specs) + 2} {
		par, err := Options{Workers: workers}.runAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		got := lines(par)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d line %d:\n got %q\nwant %q", workers, i, got[i], want[i])
			}
		}
		for i := range serial {
			a, b := serial[i].Result.Trajectory, par[i].Result.Trajectory
			if len(a) != len(b) {
				t.Fatalf("workers=%d mission %d: trajectory length %d vs %d", workers, i, len(b), len(a))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("workers=%d mission %d sample %d: %+v vs %+v", workers, i, j, b[j], a[j])
				}
			}
		}
	}
}

// TestRunMissionsPropagatesError pins the pool's error contract: with a bad
// model at index 0 and a bad map at index 1, ForEach attempts every index
// and returns index 0's failure — first in index order, not completion
// order — whatever the worker count.
func TestRunMissionsPropagatesError(t *testing.T) {
	specs := []MissionSpec{
		{Map: "tunnel", Model: "NoSuchNet", HW: config.A, VForward: 3, MaxSimSec: 2},
		{Map: "nowhere", Model: "ResNet6", HW: config.A, VForward: 3, MaxSimSec: 2},
		{Map: "tunnel", Model: "ResNet6", HW: config.A, VForward: 3, MaxSimSec: 2},
	}
	for _, workers := range []int{1, 2, len(specs) + 2} {
		var attempted atomic.Int32
		err := ForEach(len(specs), workers, func(i int) error {
			attempted.Add(1)
			_, err := RunMission(specs[i])
			return err
		})
		if err == nil {
			t.Fatalf("workers=%d: bad specs did not propagate an error", workers)
		}
		if !strings.Contains(err.Error(), "NoSuchNet") || strings.Contains(err.Error(), "nowhere") {
			t.Errorf("workers=%d: error %q, want index 0's bad-model failure", workers, err)
		}
		if got := attempted.Load(); got != int32(len(specs)) {
			t.Errorf("workers=%d: attempted %d of %d indices", workers, got, len(specs))
		}
	}
}

// TestFleetQuick runs the fleet-throughput experiment end to end: both
// passes (solo and batched) must complete, per-mission results must stay
// bit-identical under batching (Fleet errors out otherwise), and the
// missions/sec/host series must carry both operating points.
func TestFleetQuick(t *testing.T) {
	r, err := Fleet(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fleet" {
		t.Errorf("id = %q", r.ID)
	}
	if len(r.Series) != 1 || r.Series[0].Name != "missions_per_sec_host" {
		t.Fatalf("series = %+v", r.Series)
	}
	if n := len(r.Series[0].Y); n != 2 {
		t.Fatalf("%d throughput points, want 2", n)
	}
	for _, y := range r.Series[0].Y {
		if y <= 0 {
			t.Errorf("non-positive missions/sec/host %v", y)
		}
	}
}

// TestFleetInt8Quick exercises the batched collector on the quantized
// datapath through the same harness.
func TestFleetInt8Quick(t *testing.T) {
	r, err := Fleet(Options{Quick: true, Precision: dnn.PrecisionInt8})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range r.Lines {
		if strings.Contains(l, "precision=int8") {
			found = true
		}
	}
	if !found {
		t.Errorf("report does not record the precision: %v", r.Lines)
	}
}

// TestBatchedMissionRejectsDynamicRuntime: the dynamic runtime interleaves
// two sessions per iteration and cannot share one batch collector.
func TestBatchedMissionRejectsDynamicRuntime(t *testing.T) {
	model, err := dnn.Trained("ResNet6")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ort.NewBatchGroup(model.Net, dnn.PrecisionFP32, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunMission(MissionSpec{
		Map: "tunnel", Model: "ResNet6", SmallModel: "ResNet6",
		HW: cfgA(t), VForward: 3, MaxSimSec: 2, Batch: g,
	})
	if err == nil {
		t.Fatal("batched dynamic-runtime mission accepted")
	}
}

// TestInt8MissionQuick runs one short quantized mission end to end.
func TestInt8MissionQuick(t *testing.T) {
	out, err := RunMission(MissionSpec{
		Map: "tunnel", Model: "ResNet6", HW: cfgA(t),
		VForward: 3, MaxSimSec: 6, Precision: dnn.PrecisionInt8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Inferences) == 0 {
		t.Error("no inferences logged")
	}
}
