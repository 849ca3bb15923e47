package telemetry

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/world"
)

// WriteFlightStrip renders the UAV's first-person view at evenly spaced
// points along a trajectory and writes them as a single horizontal PGM
// contact sheet — the artifact's "flight recordings" in still form
// (Appendix A.7 recommends reviewing the FPV video to qualitatively judge a
// controller).
func WriteFlightStrip(w io.Writer, m *world.Map, traj []env.Telemetry, frames, camW, camH int) error {
	if frames <= 0 || len(traj) == 0 {
		return fmt.Errorf("telemetry: flight strip needs frames and a trajectory")
	}
	if frames > len(traj) {
		frames = len(traj)
	}
	cam := render.DefaultCamera(camW, camH)
	strip := render.NewImage(camW*frames, camH)
	frame := render.NewImage(camW, camH)
	for i := 0; i < frames; i++ {
		t := traj[i*(len(traj)-1)/max(frames-1, 1)]
		pose := render.Pose{Pos: t.Pos, Ori: vec.QuatFromEuler(0, 0, t.Yaw)}
		cam.RenderInto(m, pose, frame)
		for y := 0; y < camH; y++ {
			for x := 0; x < camW; x++ {
				strip.Set(i*camW+x, y, frame.At(x, y))
			}
		}
	}
	return strip.WritePGM(w)
}

// HealthStrip renders an obs.Summary as the one-screen co-simulation health
// digest CLI runs print after a mission: quantum rate and cost, where the
// wall time went (phase shares), RPC traffic, bridge queue high-water
// marks, and inference activity.
func HealthStrip(s obs.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cosim health\n")
	fmt.Fprintf(&b, "  quanta     %d in %.1fs wall (%.1f quanta/s)\n",
		s.Quanta, s.WallSeconds, s.QuantaPerSec)
	fmt.Fprintf(&b, "  quantum    mean %s  p99 %s\n",
		fmtSec(s.MeanQuantumSec), fmtSec(s.P99QuantumSec))
	// The phases run back to back, so their shares of the quantum wall
	// time sum to at most 100%; the rest is loop bookkeeping.
	fmt.Fprintf(&b, "  phases     rtl %.0f%%  exchange %.0f%%  env %.0f%%\n",
		s.RTLShare*100, s.ExchangeShare*100, s.EnvShare*100)
	fmt.Fprintf(&b, "  rpc        %d round-trips  %s out  %s in\n",
		s.RPCRoundTrips, fmtBytes(s.RPCBytesOut), fmtBytes(s.RPCBytesIn))
	fmt.Fprintf(&b, "  bridge     rx hwm %s  tx hwm %s  drops %d\n",
		fmtBytes(uint64(s.BridgeRxHWM)), fmtBytes(uint64(s.BridgeTxHWM)), s.RxDrops)
	fmt.Fprintf(&b, "  inference  %d runs  mean %s simulated latency\n",
		s.Inferences, fmtSec(s.MeanInferSec))
	// The power line appears only when the run produced energy numbers —
	// a suite with accounting off (or that never ran a mission) omits it
	// rather than printing a row of zeros.
	if s.HasEnergy {
		fmt.Fprintf(&b, "  energy     %s simulated (core %s, accel %s, mem %s, static %s)  avg %s\n",
			fmtJoules(s.EnergyTotalJ), fmtJoules(s.EnergyCoreJ), fmtJoules(s.EnergyAccelJ),
			fmtJoules(s.EnergyMemJ), fmtJoules(s.EnergyStaticJ), fmtWatts(s.AvgPowerW))
	}
	if s.TraceEvents > 0 || s.TraceDropped > 0 {
		fmt.Fprintf(&b, "  trace      %d events (%d overwritten)\n",
			s.TraceEvents, s.TraceDropped)
	}
	if s.RunID != "" {
		fmt.Fprintf(&b, "  run        %s\n", s.RunID)
	}
	if s.QuantumStalls > 0 {
		fmt.Fprintf(&b, "  stalls     %d quantum watchdog stalls\n", s.QuantumStalls)
	}
	if dumps := s.PanicDumps + s.WatchdogDumps + s.FaultDumps + s.ManualDumps; dumps > 0 {
		fmt.Fprintf(&b, "  blackbox   %d dumps (panic %d, watchdog %d, fault %d, manual %d)\n",
			dumps, s.PanicDumps, s.WatchdogDumps, s.FaultDumps, s.ManualDumps)
	}
	if s.LogEvents > 0 {
		fmt.Fprintf(&b, "  log        %d events (%d overwritten)\n",
			s.LogEvents, s.LogOverwritten)
	}
	return b.String()
}

// fmtSec prints a duration in the most readable unit.
func fmtSec(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// fmtJoules prints an energy in the most readable SI unit.
func fmtJoules(j float64) string {
	switch {
	case j <= 0:
		return "0J"
	case j < 1e-6:
		return fmt.Sprintf("%.1fnJ", j*1e9)
	case j < 1e-3:
		return fmt.Sprintf("%.1fµJ", j*1e6)
	case j < 1:
		return fmt.Sprintf("%.1fmJ", j*1e3)
	default:
		return fmt.Sprintf("%.2fJ", j)
	}
}

// fmtWatts prints a power in the most readable SI unit.
func fmtWatts(w float64) string {
	switch {
	case w <= 0:
		return "0W"
	case w < 1e-3:
		return fmt.Sprintf("%.1fµW", w*1e6)
	case w < 1:
		return fmt.Sprintf("%.1fmW", w*1e3)
	default:
		return fmt.Sprintf("%.2fW", w)
	}
}

// fmtBytes prints a byte count with a binary-unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
