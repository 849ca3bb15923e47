package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/tensor"
	"repro/internal/world"
)

// replayPoses is how many trajectory poses the render replay draws.
const replayPoses = 32

// replayResult is a layer call replayed on the driving goroutine alone.
type replayResult struct {
	calls    int
	medianUs float64
	allocs   float64 // heap allocations per call
}

// timeCalls runs call n times, timing each call and counting heap
// allocations across the calls. prepare, when non-nil, runs untimed before
// each call.
func timeCalls(n int, prepare func(i int), call func(i int)) replayResult {
	us := make([]float64, 0, n)
	var mallocs uint64
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		if prepare != nil {
			prepare(i)
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		call(i)
		us = append(us, float64(time.Since(t0))/1e3)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return replayResult{calls: n, medianUs: median(us), allocs: ratio(float64(mallocs), float64(n))}
}

// replayForward replays the solo forward pass (ForwardWSP, the path a
// session without a batch group takes) and a batch-of-2 forward on the
// camera frames captured during the traced missions.
func replayForward(net *dnn.Net, frames []capturedFrame) (solo, batch replayResult) {
	if len(frames) < 2 {
		return
	}
	inputs := make([]*tensor.Tensor, len(frames))
	for i, f := range frames {
		t := tensor.New(1, f.h, f.w)
		for j, b := range f.pix {
			t.Data[j] = float32(b)/255 - 0.5 // the controller's frame decoding
		}
		inputs[i] = t
	}
	const reps = 4
	ws := tensor.NewWorkspace()
	net.ForwardWSP(ws, inputs[0], dnn.PrecisionFP32) // grow the workspace
	solo = timeCalls(reps*len(inputs), nil, func(i int) {
		net.ForwardWSP(ws, inputs[i%len(inputs)], dnn.PrecisionFP32)
	})

	b := net.NewBatcher(tensor.NewWorkspace(), 2, dnn.PrecisionFP32)
	outs := make([]dnn.Output, 2)
	pair := make([]*tensor.Tensor, 2)
	b.Forward(inputs[:2], outs)
	batch = timeCalls(reps*len(inputs)/2, func(i int) {
		j := 2 * i % (len(inputs) - 1)
		pair[0], pair[1] = inputs[j], inputs[j+1]
	}, func(int) { b.Forward(pair, outs) })
	return solo, batch
}

// replayRender renders the camera frame at poses drawn from the traced
// missions' trajectories through the same FrameBytesInto call the
// synchronizer makes.
func replayRender(mapName string, poses []env.Telemetry) (replayResult, error) {
	m := world.ByName(mapName)
	if m == nil {
		return replayResult{}, fmt.Errorf("unknown map %q", mapName)
	}
	sim, err := env.New(env.DefaultConfig(m))
	if err != nil {
		return replayResult{}, err
	}
	var buf []byte
	buf, _, _ = sim.FrameBytesInto(buf) // size the pixel buffer
	return timeCalls(len(poses), func(i int) {
		p := poses[i]
		sim.Reset(p.Pos.X, p.Pos.Y, p.Pos.Z, p.Yaw)
	}, func(int) { buf, _, _ = sim.FrameBytesInto(buf) }), nil
}

// perLayer turns the traced half of the run into the per-layer metrics.
func perLayer(h *harness, mapName string, tracers []*tracer, rounds []*round, plain, traced *sectionStats) (map[string]metric, error) {
	var lt layerTotals
	var frames []capturedFrame
	for _, t := range tracers {
		lt.add(t)
		frames = append(frames, t.captured...)
	}
	var trajectory []env.Telemetry
	for _, rd := range rounds {
		for _, ms := range rd.missions {
			if ms.tr == nil || ms.res == nil {
				continue
			}
			lt.inferences += int64(ms.inferences)
			trajectory = append(trajectory, ms.res.Trajectory...)
		}
		if len(rd.missions) > 0 && rd.missions[0].tr != nil {
			lt.batchRounds += rd.rounds
		}
	}
	poses := make([]env.Telemetry, 0, replayPoses)
	for i := 0; i < replayPoses && len(trajectory) > 0; i++ {
		poses = append(poses, trajectory[i*len(trajectory)/replayPoses])
	}

	solo, batch := replayForward(h.net, frames)
	render, err := replayRender(mapName, poses)
	if err != nil {
		return nil, err
	}
	q := float64(lt.quanta)
	framesPerQ := ratio(float64(lt.frames), q)
	// A remote environment renders inside its server, out of the
	// benchmark's reach: the frame time then comes from the replay.
	frameUs, frameSrc := lt.perCallUs(kindRender), "span"
	if lt.calls[kindRender] == 0 {
		frameUs, frameSrc = render.medianUs, "replay"
	}
	fmt.Printf("layers: %d traced quanta; render.frame_us from %s (replay median %.3f us over %d poses); forward replay over %d frames\n",
		lt.quanta, frameSrc, render.medianUs, render.calls, len(frames))

	return map[string]metric{
		"soc.step_us":                 {lt.perQuantumUs(kindSoCStep), "us/quantum"},
		"soc.step_calls":              {float64(lt.calls[kindSoCStep]), "count"},
		"soc.bridge_us":               {lt.perQuantumUs(kindBridge), "us/quantum"},
		"render.frame_us":             {frameUs, "us"},
		"render.frame_us_per_quantum": {frameUs * framesPerQ, "us/quantum"},
		"render.frames_per_quantum":   {framesPerQ, "1/quantum"},
		"render.allocs_per_frame":     {render.allocs, "count"},
		"env.step_us":                 {lt.perQuantumUs(kindEnvStep), "us/quantum"},
		"env.telemetry_us":            {lt.perQuantumUs(kindEnvTelemetry), "us/quantum"},
		"core.overlap_wait_us":        {ratio(float64(lt.overlapNs)/1e3, q), "us/quantum"},
		"env.rpc_us":                  {lt.perCallUs(kindEnvRPC), "us"},
		"env.rpc_calls_per_quantum":   {ratio(float64(lt.calls[kindEnvRPC]), q), "1/quantum"},
		"dnn.forward_us":              {solo.medianUs, "us"},
		"dnn.allocs_per_forward":      {solo.allocs, "count"},
		"dnn.inferences_per_quantum":  {ratio(float64(lt.inferences), q), "1/quantum"},
		"dnn.forward_batch_us":        {batch.medianUs, "us"},
		"ort.batch_rounds":            {float64(lt.batchRounds), "count"},
		"core.self_us":                {ratio(float64(lt.selfNs)/1e3, q), "us/quantum"},
		"trace.quantum_us":            {lt.perQuantumUs(kindQuantum), "us"},
		"trace.residual_pct":          {100 * ratio(float64(lt.selfNs), float64(lt.ns[kindQuantum])), "%"},
		"trace.overhead_pct":          {100 * (ratio(plain.rtf(), traced.rtf()) - 1), "%"},
	}, nil
}
