package experiments

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/gemmini"
	"repro/internal/ort"
	"repro/internal/packet"
	"repro/internal/soc"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// Table3 regenerates the paper's Table 3: per-model inference latency on
// BOOM+Gemmini and Rocket+Gemmini, and validation accuracy.
func Table3(opt Options) (*Report, error) {
	r := &Report{ID: "table3", Title: "Table 3: latency and accuracy of trained DNN controllers"}
	params := soc.DefaultParams()
	boomS := telemetry.Series{Name: "latency_boom_gemmini_ms"}
	rockS := telemetry.Series{Name: "latency_rocket_gemmini_ms"}
	accS := telemetry.Series{Name: "validation_accuracy_clean"}
	augS := telemetry.Series{Name: "validation_accuracy_augmented"}
	r.line("%-10s %-22s %-23s %-14s %-10s", "Model", "Latency(BOOM+Gemmini)", "Latency(Rocket+Gemmini)", "Accuracy(dep)", "Acc(aug)")
	for i, name := range dnn.Variants() {
		tm, err := dnn.Trained(name)
		if err != nil {
			return nil, err
		}
		sess, err := ort.NewSession(tm.Net, gemmini.Default())
		if err != nil {
			return nil, err
		}
		boomMS := params.CyclesToSeconds(sess.Predict(soc.Core(soc.BOOM), params, true).Total()) * 1e3
		rockMS := params.CyclesToSeconds(sess.Predict(soc.Core(soc.Rocket), params, true).Total()) * 1e3
		clean := tm.Result.CleanAccuracy()
		aug := tm.Result.Accuracy()
		r.line("%-10s %-22s %-23s %-14s %.0f%%", name,
			fmt.Sprintf("%.0fms", boomMS), fmt.Sprintf("%.0fms", rockMS),
			fmt.Sprintf("%.0f%%", clean*100), aug*100)
		boomS.Add(float64(i), boomMS)
		rockS.Add(float64(i), rockMS)
		accS.Add(float64(i), clean)
		augS.Add(float64(i), aug)
	}
	r.Series = []telemetry.Series{boomS, rockS, accS, augS}
	return r, nil
}

// Figure10 regenerates the SoC-architecture trajectory study: configs A, B,
// C in the tunnel at 3 m/s from −20°, 0°, and +20° initial headings. CPU-
// only config C cannot navigate (multi-second inference latency).
func Figure10(opt Options) (*Report, error) {
	r := &Report{
		ID:           "figure10",
		Title:        "Figure 10: UAV trajectories per hardware configuration (tunnel, ResNet14, 3 m/s)",
		Trajectories: map[string][]env.Telemetry{},
	}
	yaws := []float64{-20, 0, 20}
	var specs []MissionSpec
	var hws []config.HW
	for _, hw := range config.All() {
		for _, yaw := range yaws {
			maxSec := opt.maxSimSec()
			if hw.Name == "C" && opt.Quick {
				maxSec = 15 // config C only needs long enough to show failure
			}
			specs = append(specs, MissionSpec{
				Map: "tunnel", Model: "ResNet14", HW: hw,
				VForward: 3, StartYawDeg: yaw, MaxSimSec: maxSec,
			})
			hws = append(hws, hw)
		}
	}
	outs, err := opt.runAll(opt.stamp(specs))
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		hw, yaw := hws[i], specs[i].StartYawDeg
		key := fmt.Sprintf("config%s_yaw%+.0f", hw.Name, yaw)
		r.Trajectories[key] = out.Result.Trajectory
		s := telemetry.Series{Name: key}
		for _, t := range out.Result.Trajectory {
			s.Add(t.Pos.X, t.Pos.Y)
		}
		r.Series = append(r.Series, s)
		r.line("config %s  yaw %+3.0f°: completed=%-5v mission=%6.2fs collisions=%d",
			hw.Name, yaw, out.Result.Completed, out.Result.MissionTimeSec, out.Result.Collisions)
	}
	return r, nil
}

// Figure11 regenerates the DNN-architecture sweep: each variant flying
// s-shape at 9 m/s; larger models violate deadlines, the smallest lacks
// accuracy and confidence.
func Figure11(opt Options) (*Report, error) {
	r := &Report{
		ID:           "figure11",
		Title:        "Figure 11: trajectories across DNN architectures (s-shape, 9 m/s)",
		Trajectories: map[string][]env.Telemetry{},
	}
	var specs []MissionSpec
	for _, name := range dnn.Variants() {
		specs = append(specs, MissionSpec{
			Map: "s-shape", Model: name, HW: config.A,
			VForward: 9, MaxSimSec: opt.maxSimSec(),
		})
	}
	outs, err := opt.runAll(opt.stamp(specs))
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		name := specs[i].Model
		r.Trajectories[name] = out.Result.Trajectory
		s := telemetry.Series{Name: name + "_lateral"}
		for _, t := range out.Result.Trajectory {
			s.Add(t.TimeSec, t.Pos.Y)
		}
		r.Series = append(r.Series, s)
		r.line("%-10s completed=%-5v mission=%6.2fs collisions=%2d meanLat=%5.0fms",
			name, out.Result.Completed, out.Result.MissionTimeSec,
			out.Result.Collisions, meanLatencyMS(out))
	}
	return r, nil
}

// Figure12 regenerates the velocity-target sweep: ResNet14 on config A in
// s-shape at 6, 9, and 12 m/s; higher velocity tightens the deadline
// (Equations 3–5) until collisions occur.
func Figure12(opt Options) (*Report, error) {
	r := &Report{
		ID:           "figure12",
		Title:        "Figure 12: flight-velocity sweep (s-shape, ResNet14, BOOM+Gemmini)",
		Trajectories: map[string][]env.Telemetry{},
	}
	mt := telemetry.Series{Name: "mission_time_s"}
	cc := telemetry.Series{Name: "collisions"}
	var specs []MissionSpec
	for _, v := range []float64{6, 9, 12} {
		specs = append(specs, MissionSpec{
			Map: "s-shape", Model: "ResNet14", HW: config.A,
			VForward: v, MaxSimSec: opt.maxSimSec(),
		})
	}
	outs, err := opt.runAll(opt.stamp(specs))
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		v := specs[i].VForward
		key := fmt.Sprintf("v%.0f", v)
		r.Trajectories[key] = out.Result.Trajectory
		mt.Add(v, out.Result.MissionTimeSec)
		cc.Add(v, float64(out.Result.Collisions))
		r.line("v=%2.0f m/s: completed=%-5v mission=%6.2fs collisions=%2d avgV=%.2f m/s",
			v, out.Result.Completed, out.Result.MissionTimeSec, out.Result.Collisions,
			out.Result.AvgVelocity)
	}
	r.Series = []telemetry.Series{mt, cc}
	return r, nil
}

// Figure13 regenerates the dynamic-runtime study: static ResNet14, static
// ResNet6, and the deadline-switched dynamic pair, comparing application
// runtime and accelerator activity factor.
func Figure13(opt Options) (*Report, error) {
	r := &Report{
		ID:    "figure13",
		Title: "Figure 13: static vs dynamic DNN runtimes (s-shape, 9 m/s)",
	}
	rt := telemetry.Series{Name: "application_runtime_s"}
	af := telemetry.Series{Name: "accelerator_activity_factor"}
	cases := []struct {
		label string
		spec  MissionSpec
	}{
		{"static_ResNet14", MissionSpec{Map: "s-shape", Model: "ResNet14", HW: config.A, VForward: 9}},
		{"static_ResNet6", MissionSpec{Map: "s-shape", Model: "ResNet6", HW: config.A, VForward: 9}},
		{"dynamic_14_6", MissionSpec{Map: "s-shape", Model: "ResNet14", SmallModel: "ResNet6", HW: config.A, VForward: 9}},
	}
	for i, c := range cases {
		c.spec.MaxSimSec = opt.maxSimSec()
		out, err := RunMission(c.spec)
		if err != nil {
			return nil, err
		}
		activity := out.Result.SoC.ActivityFactor()
		rt.Add(float64(i), out.Result.MissionTimeSec)
		af.Add(float64(i), activity)
		r.line("%-16s runtime=%6.2fs activity=%.2f inferences=%4d fallbacks=%3d completed=%v",
			c.label, out.Result.MissionTimeSec, activity,
			len(out.Inferences), out.Fallbacks(), out.Result.Completed)
	}
	r.Series = []telemetry.Series{rt, af}
	return r, nil
}

// Figure14 regenerates the hardware/software co-design sweep: mission time,
// average velocity, and accelerator activity for every DNN on both
// Gemmini-equipped SoCs; the optimal model changes with the core.
func Figure14(opt Options) (*Report, error) {
	r := &Report{
		ID:    "figure14",
		Title: "Figure 14: HW/SW co-design sweep (s-shape, 9 m/s)",
	}
	hws := []config.HW{config.A, config.B}
	variants := dnn.Variants()
	var specs []MissionSpec
	for _, hw := range hws {
		for _, name := range variants {
			specs = append(specs, MissionSpec{
				Map: "s-shape", Model: name, HW: hw,
				VForward: 9, MaxSimSec: opt.maxSimSec(),
			})
		}
	}
	outs, err := opt.runAll(opt.stamp(specs))
	if err != nil {
		return nil, err
	}
	for h, hw := range hws {
		mt := telemetry.Series{Name: "mission_time_" + hw.Core.String()}
		av := telemetry.Series{Name: "avg_velocity_" + hw.Core.String()}
		af := telemetry.Series{Name: "activity_" + hw.Core.String()}
		for i, name := range variants {
			out := outs[h*len(variants)+i]
			mt.Add(float64(i), out.Result.MissionTimeSec)
			av.Add(float64(i), out.Result.AvgVelocity)
			af.Add(float64(i), out.Result.SoC.ActivityFactor())
			r.line("%-7s+Gemmini %-10s mission=%6.2fs avgV=%4.2f activity=%.2f completed=%v",
				hw.Core, name, out.Result.MissionTimeSec, out.Result.AvgVelocity,
				out.Result.SoC.ActivityFactor(), out.Result.Completed)
		}
		r.Series = append(r.Series, mt, av, af)
	}
	return r, nil
}

// Figure15 regenerates the throughput-vs-granularity study. Two curves:
// the modeled FPGA deployment (FireSim-class simulation rate with a fixed
// host round-trip per synchronization) and the measured throughput of this
// Go co-simulation.
func Figure15(opt Options) (*Report, error) {
	r := &Report{
		ID:    "figure15",
		Title: "Figure 15: co-simulation throughput vs synchronization granularity",
	}
	const (
		fpgaMHz      = 90.0   // FireSim-class FPGA simulation rate
		syncOverhead = 250e-6 // host/FPGA round trip per synchronization
	)
	model := telemetry.Series{Name: "modeled_fpga_throughput_mhz"}
	meas := telemetry.Series{Name: "measured_go_throughput_mhz"}
	grans := []uint64{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 400_000_000}
	if opt.Quick {
		grans = []uint64{100_000, 10_000_000, 400_000_000}
	}
	for _, g := range grans {
		model.Add(float64(g), core.ModeledThroughput(g, fpgaMHz, syncOverhead))
		mhz, err := measureGoThroughput(g)
		if err != nil {
			return nil, err
		}
		meas.Add(float64(g), mhz)
		r.line("granularity %12d cycles: modeled FPGA %7.2f MHz, measured Go %8.2f MHz",
			g, model.Y[len(model.Y)-1], mhz)
	}
	r.Series = []telemetry.Series{model, meas}
	return r, nil
}

// measureGoThroughput runs a short synthetic co-simulation at the given
// granularity and reports simulated MHz.
func measureGoThroughput(syncCycles uint64) (float64, error) {
	m := world.Tunnel()
	ecfg := env.DefaultConfig(m)
	sim, err := env.New(ecfg)
	if err != nil {
		return 0, err
	}
	// A representative bridge-chatty program (sensor poll + compute).
	prog := func(rt *soc.Runtime) error {
		for {
			rt.Send(packet.Packet{Type: packet.DepthReq})
			rt.Recv()
			rt.Compute(2_000_000)
		}
	}
	machine := soc.NewMachine(soc.Config{Core: soc.BOOM, Gemmini: true}, prog)
	defer machine.Close()
	ccfg := core.DefaultConfig()
	ccfg.SyncCycles = syncCycles
	ccfg.MaxSimSeconds = 0.5
	ccfg.StopOnMissionComplete = false
	ccfg.RecordTrajectory = false
	sy, err := core.New(sim, machine, ccfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	res, err := sy.Run()
	if err != nil {
		return 0, err
	}
	wall := time.Since(start).Seconds()
	if wall <= 0 {
		return 0, nil
	}
	return float64(res.Cycles) / wall / 1e6, nil
}

// Figure16 regenerates the synchronization-granularity fidelity study:
// identical initial conditions swept across granularities diverge in
// trajectory, and the measured image-request→command latency grows with the
// quantum (synchronization-induced artificial latency).
func Figure16(opt Options) (*Report, error) {
	r := &Report{
		ID:           "figure16",
		Title:        "Figure 16: synchronization granularity vs simulation fidelity (tunnel, +20°, ResNet14, 3 m/s)",
		Trajectories: map[string][]env.Telemetry{},
	}
	lat := telemetry.Series{Name: "request_to_command_latency_ms"}
	grans := []uint64{10_000_000, 20_000_000, 50_000_000, 100_000_000, 400_000_000}
	if opt.Quick {
		grans = []uint64{10_000_000, 100_000_000, 400_000_000}
	}
	var specs []MissionSpec
	for _, g := range grans {
		specs = append(specs, MissionSpec{
			Map: "tunnel", Model: "ResNet14", HW: config.A,
			VForward: 3, StartYawDeg: 20, SyncCycles: g,
			MaxSimSec: opt.maxSimSec(),
		})
	}
	outs, err := opt.runAll(opt.stamp(specs))
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		g := grans[i]
		key := fmt.Sprintf("sync%dM", g/1_000_000)
		r.Trajectories[key] = out.Result.Trajectory
		ms := meanLatencyMS(out)
		lat.Add(float64(g), ms)
		s := telemetry.Series{Name: key}
		for _, t := range out.Result.Trajectory {
			s.Add(t.Pos.X, t.Pos.Y)
		}
		r.Series = append(r.Series, s)
		r.line("granularity %4dM cycles: latency=%6.0fms completed=%-5v mission=%6.2fs collisions=%d",
			g/1_000_000, ms, out.Result.Completed, out.Result.MissionTimeSec, out.Result.Collisions)
	}
	r.Series = append(r.Series, lat)
	return r, nil
}

func meanLatencyMS(out *MissionOutcome) float64 {
	if len(out.Inferences) == 0 {
		return 0
	}
	var s float64
	for _, rec := range out.Inferences {
		s += rec.LatencySec
	}
	return s / float64(len(out.Inferences)) * 1e3
}
