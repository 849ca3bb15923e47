// Command cosimbench is the co-simulator's end-to-end benchmark. It runs a
// named workload of closed-loop missions in one process, prints the
// end-to-end metrics with their units, and checks every mission's simulated
// outcome against experiments.RunMission. With -trace 1 it instead reports
// per-layer metrics from a traced run. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/tensor"
	"repro/internal/world"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// workload is a named closed loop of missions.
type workload struct {
	mapName string
	members int  // missions per round; 2 = a batched fleet pair
	tcp     bool // environment served over loopback TCP
}

var workloads = map[string]workload{
	"tunnel":     {mapName: "tunnel", members: 1},
	"sshape":     {mapName: "s-shape", members: 1},
	"fleet2":     {mapName: "tunnel", members: 2},
	"tunnel-tcp": {mapName: "tunnel", members: 1, tcp: true},
}

const (
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 3
	// yawsPerRun is how many distinct start yaws a run draws and cycles
	// through, which bounds the reference runs the correctness check needs.
	yawsPerRun = 2
	// maxYawDeg bounds the drawn start yaw.
	maxYawDeg = 15.0
	// minQuanta makes each half of a run hold at least one whole mission,
	// even when one mission outlasts --seconds.
	minQuanta = 1000
)

// harness holds what set-up builds: the trained model and, for the TCP
// workload, the loopback environment server.
type harness struct {
	net  *dnn.Net
	addr string
	srv  *env.Server
}

func (h *harness) close() {
	if h.srv != nil {
		h.srv.Close()
	}
}

// setup trains the model, builds the map, starts the environment server
// when the workload needs one, and assembles (without running) the first
// mission. It returns the harness and the time from start until that
// mission was assembled.
func setup(w workload, start time.Time, firstYaw float64) (*harness, float64, error) {
	h := &harness{}
	tm, err := dnn.Trained(modelName)
	if err != nil {
		return nil, 0, err
	}
	h.net = tm.Net
	m := world.ByName(w.mapName)
	if m == nil {
		return nil, 0, fmt.Errorf("unknown map %q", w.mapName)
	}
	if w.tcp {
		cfg := env.DefaultConfig(m)
		cfg.StartX = startX
		sim, err := env.New(cfg)
		if err != nil {
			return nil, 0, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, fmt.Errorf("listening on loopback: %w", err)
		}
		h.srv = env.NewServerOn(sim, ln)
		h.addr = h.srv.Addr()
		go h.srv.Serve()
	}
	specs := roundSpecs(w, []float64{firstYaw}, 0)
	rd, err := assembleRound(h, specs, make([]*tracer, len(specs)))
	elapsed := time.Since(start).Seconds()
	if err != nil {
		h.close()
		return nil, 0, err
	}
	rd.close()
	return h, elapsed, nil
}

// drawYaws draws the run's start yaws from the seed.
func drawYaws(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	yaws := make([]float64, yawsPerRun)
	for i := range yaws {
		yaws[i] = (2*rng.Float64() - 1) * maxYawDeg
	}
	return yaws
}

// roundSpecs returns the specs of round r: consecutive yaws from the
// run's cycle, one per member.
func roundSpecs(w workload, yaws []float64, r int) []experiments.MissionSpec {
	specs := make([]experiments.MissionSpec, w.members)
	for i := range specs {
		specs[i] = missionSpec(w.mapName, yaws[(r*w.members+i)%len(yaws)])
	}
	return specs
}

// hostStamp describes the machine the numbers were taken on.
func hostStamp() map[string]string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]string{
		"cpu":         cpu,
		"nproc":       fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":  fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":          runtime.Version(),
		"gemm_kernel": tensor.ActiveKernel().String(),
	}
}

// peakRSSMiB returns the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tunnel, sshape, fleet2 or tunnel-tcp")
	seed := flag.Int64("seed", 1, "workload seed: draws the missions' start yaws")
	seconds := flag.Float64("seconds", 10, "length of the timed section")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cosimbench: usage: -workload {tunnel|sshape|fleet2|tunnel-tcp} -seed N -seconds S -trace {0|1}\n")
		os.Exit(2)
	}
	// A traced run writes its spans beside the build output.
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	traceOut := filepath.Join(dir, "trace-"+*name+".json")
	if err := run(*name, w, *seed, *seconds, *trace == 1, traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "cosimbench:", err)
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, seconds float64, traced bool, traceOut string) error {
	stamp := hostStamp()
	stamp["workload"] = name
	stamp["seed"] = fmt.Sprint(seed)
	if b, err := json.Marshal(stamp); err == nil {
		fmt.Printf("host: %s\n", b)
	}
	yaws := drawYaws(seed)
	fmt.Printf("workload: %s  seed=%d  yaws_deg=%.3f  members/round=%d  traced=%v\n", name, seed, yaws, w.members, traced)

	// --- Set-up, repeated; the last repetition's harness is kept. ---
	var h *harness
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := processStart
		if i > 0 {
			h.close()
			dnn.ResetRegistry()
			runtime.GC()
			start = time.Now()
		}
		var s float64
		var err error
		if h, s, err = setup(w, start, yaws[0]); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s)
	}
	defer h.close()
	fmt.Printf("setup_s: runs=%.4f\n", setups)
	// Start every timed section from the same collected heap, so the GC
	// cycles inside it do not depend on what set-up left behind.
	runtime.GC()

	// --- Timed closed loop. In a traced run, rounds alternate untraced and
	// traced, so the tracing overhead is measured against neighbours. ---
	epoch := time.Now()
	var plain, withTrace sectionStats
	var rounds []*round
	var tracers []*tracer
	deadline := time.Duration(seconds * float64(time.Second))
	more := func() bool {
		el := time.Since(epoch)
		short := plain.quanta < minQuanta || (traced && withTrace.quanta < minQuanta)
		// Past the deadline, keep going only to reach minQuanta, and give
		// up at three deadlines (a workload whose missions fail early).
		return el < deadline || (short && el < 3*deadline)
	}
	for r := 0; more(); r++ {
		specs := roundSpecs(w, yaws, r)
		trs := make([]*tracer, len(specs))
		on := traced && r%2 == 1
		if on {
			for i := range trs {
				trs[i] = newTracer(epoch, len(tracers)+i+1, maxQuanta)
			}
			tracers = append(tracers, trs...)
		}
		rd := runRound(h, specs, trs)
		rounds = append(rounds, rd)
		if on {
			withTrace.add(rd) // keeps its trajectories for the render replay
		} else {
			plain.add(rd)
			rd.release()
		}
	}

	// --- Correctness: every mission against experiments.RunMission. ---
	check := verify(w.mapName, rounds)
	check.print()

	res := result{Correct: check.failed == 0, Attempted: check.attempted, Failed: check.failed}
	plain.print("untraced")
	if !traced {
		res.Metrics = plain.metrics(setups)
		res.Metrics["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	} else {
		withTrace.print("traced")
		layers, err := perLayer(h, w.mapName, tracers, rounds, &plain, &withTrace)
		if err != nil {
			return err
		}
		res.Metrics = layers
		if err := writeChromeTrace(traceOut, stamp, tracers); err != nil {
			return err
		}
		fmt.Printf("trace: %d missions written to %s\n", len(tracers), traceOut)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
