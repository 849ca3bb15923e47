package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/gemmini"
	"repro/internal/ort"
	"repro/internal/soc"
	"repro/internal/vec"
	"repro/internal/world"
)

const (
	modelName = "ResNet6"
	vForward  = 3.0
	startX    = 2.0
	// missionSimSec is every mission's fixed simulated length. It ends a
	// tunnel flight just before completion (about 18 s), so every mission
	// flies 1020 one-frame quanta: enough for 10 samples beyond its p99,
	// and missions per second is exactly rtf / missionSimSec.
	missionSimSec = 17.0
	// maxQuanta sizes per-mission buffers so the benchmark's own appends
	// never allocate inside the quantum loop.
	maxQuanta = int(missionSimSec*60) + 2
)

// missionSpec is the generated input of one mission: ResNet6 fp32 on
// config A at 3 m/s, calm, for missionSimSec from the workload's map at a
// drawn start yaw.
// The same spec drives experiments.RunMission for the reference run.
func missionSpec(mapName string, yawDeg float64) experiments.MissionSpec {
	return experiments.MissionSpec{
		Map:         mapName,
		Model:       modelName,
		HW:          config.A,
		VForward:    vForward,
		StartYawDeg: yawDeg,
		StartX:      startX,
		MaxSimSec:   missionSimSec,
	}
}

// mission is one co-simulation assembled by the benchmark from the same
// public constructors experiments.RunMission uses.
type mission struct {
	spec    experiments.MissionSpec
	log     *app.Log
	sy      *core.Synchronizer
	tr      *tracer // nil when untraced
	closers []func()
	leave   func() // departs the batch group (nil when unbatched); idempotent

	quantumNs  []int64
	res        *core.Result
	inferences int // forward passes the controller ran, counted at finish
	err        error
}

func (ms *mission) close() {
	for i := len(ms.closers) - 1; i >= 0; i-- {
		ms.closers[i]()
	}
	ms.closers = nil
}

// assemble builds a mission. addr, when set, is a loopback env.Server the
// mission dials instead of building an in-process simulator. group, when
// set, routes inferences through a cross-mission batch collector the
// mission is already registered with. tr, when set, wraps the environment
// and the RTL in timing views.
func assemble(spec experiments.MissionSpec, net *dnn.Net, addr string, group *ort.BatchGroup, tr *tracer) (ms *mission, err error) {
	ms = &mission{spec: spec, tr: tr}
	built := ms
	defer func() {
		if err != nil {
			built.close()
		}
	}()
	if group != nil {
		var once sync.Once
		ms.leave = func() { once.Do(group.Leave) }
		ms.closers = append(ms.closers, ms.leave)
	}
	m := world.ByName(spec.Map)
	if m == nil {
		return nil, fmt.Errorf("unknown map %q", spec.Map)
	}
	yaw := vec.Deg(spec.StartYawDeg)
	var e env.Env
	if addr != "" {
		c, err := env.DialWith(addr, env.DialOptions{})
		if err != nil {
			return nil, err
		}
		ms.closers = append(ms.closers, func() { c.Close() })
		if err := c.Reset(spec.StartX, 0, 0, yaw); err != nil {
			return nil, fmt.Errorf("resetting remote env: %w", err)
		}
		e = c
	} else {
		ecfg := env.DefaultConfig(m)
		ecfg.StartX = spec.StartX
		ecfg.StartYaw = yaw
		ecfg.Seed = spec.Seed + 1
		sim, err := env.New(ecfg)
		if err != nil {
			return nil, err
		}
		e = sim
	}

	sess, err := ort.NewSessionP(net, gemmini.Default(), dnn.PrecisionFP32)
	if err != nil {
		return nil, err
	}
	if group != nil {
		if err := sess.AttachBatch(group); err != nil {
			return nil, err
		}
	}
	ctrl := app.DefaultControlParams(spec.VForward)
	ctrl.Temperature = app.TemperatureFor(spec.Model)
	ms.log = &app.Log{}
	mach := soc.NewStateMachine(spec.HW.SoCConfig(), app.NewStaticLoop(sess, ctrl, ms.log))
	ms.closers = append(ms.closers, mach.Close)

	ccfg := core.DefaultConfig()
	ccfg.MaxSimSeconds = spec.MaxSimSec
	var rtl core.RTL = mach
	if tr != nil {
		e, rtl = wrapEnv(e, tr), wrapRTL(rtl, tr)
	}
	ms.sy, err = core.New(e, rtl, ccfg)
	if err != nil {
		return nil, err
	}
	ms.quantumNs = make([]int64, 0, maxQuanta)
	return ms, nil
}

// drive runs the started mission one quantum per StepQuanta(1) call, timing
// each call, until a terminal condition or an error.
func (ms *mission) drive() {
	for {
		var done bool
		var err error
		if ms.tr != nil {
			ms.tr.beginQuantum()
			done, err = ms.sy.StepQuanta(1)
			ms.quantumNs = append(ms.quantumNs, ms.tr.endQuantum())
		} else {
			t0 := time.Now()
			done, err = ms.sy.StepQuanta(1)
			ms.quantumNs = append(ms.quantumNs, int64(time.Since(t0)))
		}
		if err != nil {
			ms.err = err
			return
		}
		if done {
			return
		}
	}
}

// finish ends the synchronizer (stopping its overlap worker) and releases
// the mission's resources. It keeps only the outcome, so the memory a run
// holds does not grow with the number of missions that fit in it.
func (ms *mission) finish() {
	res, err := ms.sy.Finish()
	if ms.err == nil {
		ms.res, ms.err = res, err
	}
	ms.inferences = len(ms.log.Records())
	ms.close()
	ms.sy, ms.log = nil, nil
}

// round is one closed-loop step of a workload: one mission, or the
// concurrent members of a batched fleet.
type round struct {
	missions []*mission
	group    *ort.BatchGroup // shared by a fleet's members; nil for one mission
	wallNs   int64           // assembly through finish
	mallocs  uint64          // heap allocations across the StepQuanta loops
	rounds   uint64          // batch-group rounds flushed (fleet only)
	size     int             // missions attempted
	err      error           // assembly failure
}

// release drops the round's per-quantum samples and trajectories once they
// are summarized, so the run's memory does not grow with the number of
// missions that fit in it.
func (rd *round) release() {
	for _, ms := range rd.missions {
		ms.quantumNs = nil
		if ms.res != nil {
			ms.res.Trajectory = nil
		}
	}
	rd.group = nil
}

func (rd *round) close() {
	for _, ms := range rd.missions {
		ms.close()
	}
}

// assembleRound assembles one mission per spec. More than one spec makes a
// batched fleet whose members share one ort.BatchGroup. tracers holds one
// entry per spec, nil for an untraced member.
func assembleRound(h *harness, specs []experiments.MissionSpec, tracers []*tracer) (*round, error) {
	rd := &round{size: len(specs)}
	if len(specs) > 1 {
		g, err := ort.NewBatchGroup(h.net, dnn.PrecisionFP32, len(specs))
		if err != nil {
			return nil, err
		}
		rd.group = g
	}
	for i, sp := range specs {
		ms, err := assemble(sp, h.net, h.addr, rd.group, tracers[i])
		if err != nil {
			if rd.group != nil {
				// The failed member departed as it closed; depart for the
				// members never assembled too, as none of them will submit.
				for range specs[i+1:] {
					rd.group.Leave()
				}
			}
			rd.close()
			return nil, err
		}
		rd.missions = append(rd.missions, ms)
	}
	return rd, nil
}

// runRound assembles, drives and finishes one round. A fleet's members are
// stepped concurrently, each on its own goroutine, as the batch protocol
// requires, and each departs the group as soon as its loop ends so the
// other's later inferences do not wait for it.
func runRound(h *harness, specs []experiments.MissionSpec, tracers []*tracer) *round {
	t0 := time.Now()
	rd, err := assembleRound(h, specs, tracers)
	if err != nil {
		return &round{size: len(specs), err: err, wallNs: int64(time.Since(t0))}
	}
	for _, ms := range rd.missions {
		if err := ms.sy.Start(); err != nil {
			ms.err = err
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if len(rd.missions) == 1 {
		if ms := rd.missions[0]; ms.err == nil {
			ms.drive()
		}
	} else {
		var wg sync.WaitGroup
		for _, ms := range rd.missions {
			wg.Add(1)
			go func(ms *mission) {
				defer wg.Done()
				if ms.err == nil {
					ms.drive()
				}
				ms.leave()
			}(ms)
		}
		wg.Wait()
	}
	runtime.ReadMemStats(&after)
	rd.mallocs = after.Mallocs - before.Mallocs
	if rd.group != nil {
		rd.rounds = rd.group.Rounds()
	}
	for _, ms := range rd.missions {
		ms.finish()
	}
	rd.wallNs = int64(time.Since(t0))
	return rd
}
