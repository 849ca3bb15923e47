package experiments

import (
	"repro/internal/config"
	"repro/internal/telemetry"
)

// The ablations extend the paper's evaluation with studies of the design
// choices DESIGN.md calls out: per-quantum lockstep data exchange, bridge
// queue sizing, and the control policy of §5.2.

// AblationSync compares strict lockstep data exchange (every quantum)
// against loosely-coupled co-simulation where packets cross the bridge only
// every N quanta. Loose coupling adds uncontrolled sensing/actuation
// staleness — the failure mode RoSÉ's synchronizer exists to prevent.
func AblationSync(opt Options) (*Report, error) {
	r := &Report{
		ID:    "ablation-sync",
		Title: "Ablation: lockstep vs loosely-coupled data exchange (tunnel, +20°, ResNet14, 3 m/s)",
	}
	lat := telemetry.Series{Name: "mean_latency_ms"}
	ns := []int{1, 4, 16}
	if opt.Quick {
		ns = []int{1, 16}
	}
	for _, n := range ns {
		out, err := RunMission(MissionSpec{
			Map: "tunnel", Model: "ResNet14", HW: config.A,
			VForward: 3, StartYawDeg: 20,
			ExchangeEveryN: n, MaxSimSec: opt.maxSimSec(),
		})
		if err != nil {
			return nil, err
		}
		ms := meanLatencyMS(out)
		lat.Add(float64(n), ms)
		r.line("exchange every %2d quanta: completed=%-5v mission=%6.2fs collisions=%2d latency=%4.0fms",
			n, out.Result.Completed, out.Result.MissionTimeSec, out.Result.Collisions, ms)
	}
	r.Series = []telemetry.Series{lat}
	return r, nil
}

// AblationQueue sweeps the RoSÉ BRIDGE RX queue capacity. A queue smaller
// than the largest sensor payload (a camera frame) silently drops frames —
// the SoC stalls forever waiting for CAM_DATA and the mission never starts,
// showing why the bridge FIFOs must be sized for the sensor suite.
func AblationQueue(opt Options) (*Report, error) {
	r := &Report{
		ID:    "ablation-queue",
		Title: "Ablation: bridge RX queue capacity (tunnel, ResNet14, 3 m/s)",
	}
	prog := telemetry.Series{Name: "inferences_completed"}
	sizes := []int{2 << 10, 4 << 10, 64 << 10}
	if opt.Quick {
		sizes = []int{2 << 10, 64 << 10}
	}
	for _, sz := range sizes {
		maxSec := opt.maxSimSec()
		if sz < 4<<10 {
			maxSec = 10 // the failure shows immediately
		}
		out, err := RunMission(MissionSpec{
			Map: "tunnel", Model: "ResNet14", HW: config.A,
			VForward: 3, RxQueueBytes: sz, MaxSimSec: maxSec,
		})
		if err != nil {
			return nil, err
		}
		dist := 0.0
		if n := len(out.Result.Trajectory); n > 0 {
			dist = out.Result.Trajectory[n-1].Pos.X
		}
		prog.Add(float64(sz), float64(len(out.Inferences)))
		r.line("rx queue %5d B: completed=%-5v distance=%5.1fm inferences=%d packets_in=%d",
			sz, out.Result.Completed, dist, len(out.Inferences), out.Result.SoC.PacketsIn)
	}
	r.Series = []telemetry.Series{prog}
	return r, nil
}

// AblationPolicy compares the probability-scaled control law of Equation 2
// against the argmax compensation policy §5.2 discusses for low-confidence
// networks, both with ResNet6 in the s-shape.
func AblationPolicy(opt Options) (*Report, error) {
	r := &Report{
		ID:    "ablation-policy",
		Title: "Ablation: softmax-scaled vs argmax control (s-shape, ResNet6, 9 m/s)",
	}
	for _, argmax := range []bool{false, true} {
		out, err := RunMission(MissionSpec{
			Map: "s-shape", Model: "ResNet6", HW: config.A,
			VForward: 9, Argmax: argmax, MaxSimSec: opt.maxSimSec(),
		})
		if err != nil {
			return nil, err
		}
		label := "softmax-scaled"
		if argmax {
			label = "argmax"
		}
		r.line("%-15s completed=%-5v mission=%6.2fs collisions=%2d avgV=%.2f",
			label, out.Result.Completed, out.Result.MissionTimeSec,
			out.Result.Collisions, out.Result.AvgVelocity)
	}
	return r, nil
}
