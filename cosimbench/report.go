package main

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
)

// sectionStats pools the rounds of one half of the timed section. The
// quantum quantiles are taken per mission and averaged over missions: a
// mission's p50 sits near one of two levels, set by how fast the host wakes
// the overlap worker, so a median over missions would jump between the
// levels from run to run while the mean moves smoothly with their mix.
type sectionStats struct {
	rounds    int
	missions  int
	quanta    int
	minQuanta int       // fewest quanta in one mission
	p50, p99  []float64 // per-mission quantum quantiles, us
	simSec    float64
	wallNs    int64
	mallocs   uint64
}

func (s *sectionStats) add(rd *round) {
	s.rounds++
	s.wallNs += rd.wallNs
	s.mallocs += rd.mallocs
	for _, ms := range rd.missions {
		n := len(ms.quantumNs)
		if n == 0 {
			continue
		}
		us := make([]float64, n)
		for i, ns := range ms.quantumNs {
			us[i] = float64(ns) / 1e3
		}
		sorted := sortedCopy(us)
		s.p50 = append(s.p50, percentile(sorted, 50))
		s.p99 = append(s.p99, percentile(sorted, 99))
		if s.missions == 0 || n < s.minQuanta {
			s.minQuanta = n
		}
		s.missions++
		s.quanta += n
		if ms.res != nil {
			s.simSec += ms.res.SimSeconds
		}
	}
}

// rtf is simulated seconds flown per wall second over the whole section,
// assembly included.
func (s *sectionStats) rtf() float64 { return ratio(s.simSec, float64(s.wallNs)/1e9) }

func (s *sectionStats) allocsPerQuantum() float64 {
	return ratio(float64(s.mallocs), float64(s.quanta))
}

func (s *sectionStats) print(label string) {
	wall := float64(s.wallNs) / 1e9
	fmt.Printf("%s: rounds=%d missions=%d quanta=%d wall_s=%.3f sim_s=%.3f\n", label, s.rounds, s.missions, s.quanta, wall, s.simSec)
	fmt.Printf("  quantum_us_p50     = %.3f us (mean over %d missions of each mission's p50; median %.3f)\n", mean(s.p50), len(s.p50), median(s.p50))
	fmt.Printf("  quantum_us_p99     = %.3f us (mean over %d missions; each has >= %d quanta, %d beyond its p99)\n",
		mean(s.p99), len(s.p99), s.minQuanta, beyond(s.minQuanta, 99))
	if p, ok := tailPercentile(s.minQuanta); ok {
		fmt.Printf("  highest percentile with >=%d samples beyond it in every mission: p%g\n", minBeyond, p)
	}
	fmt.Printf("  rtf                = %.4f sim-s/wall-s (%.3f sim-s over %.3f wall-s)\n", s.rtf(), s.simSec, wall)
	fmt.Printf("  missions_per_s     = %.4f 1/s (rtf / %g sim-s per mission; not gated)\n", s.rtf()/missionSimSec, missionSimSec)
	fmt.Printf("  allocs_per_quantum = %.3f count\n", s.allocsPerQuantum())
}

// metrics returns the end-to-end metrics of an untraced run.
func (s *sectionStats) metrics(setups []float64) map[string]metric {
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"quantum_us_p50":     {mean(s.p50), "us"},
		"quantum_us_p99":     {mean(s.p99), "us"},
		"rtf":                {s.rtf(), "sim-s/wall-s"},
		"allocs_per_quantum": {s.allocsPerQuantum(), "count"},
	}
}

// outcome is the simulated result of a mission: what a speed-up must leave
// unchanged.
type outcome struct {
	fingerprint uint64
	simSec      float64
	cycles      uint64
	collisions  int
	inferences  int
	energyJ     float64
	completed   bool
}

func (o outcome) String() string {
	return fmt.Sprintf("sim_s=%.4f cycles=%d collisions=%d inferences=%d energy_j=%.6f completed=%v fp=%016x",
		o.simSec, o.cycles, o.collisions, o.inferences, o.energyJ, o.completed, o.fingerprint)
}

func outcomeOf(r *core.Result, inferences int) outcome {
	return outcome{r.Fingerprint, r.SimSeconds, r.Cycles, r.Collisions, inferences, r.EnergyJoules(), r.Completed}
}

// checkResult is the correctness verdict of a run.
type checkResult struct {
	attempted, failed int
	lines             []string
}

func (c *checkResult) print() {
	for _, l := range c.lines {
		fmt.Println(l)
	}
	fmt.Printf("fail_frac = %.4f ratio (%d of %d missions failed)\n",
		ratio(float64(c.failed), float64(c.attempted)), c.failed, c.attempted)
}

// verify compares every mission of the run with experiments.RunMission on
// the same spec: in-process and unbatched, untraced. That one reference
// pins the TCP workload to the in-process mission, each fleet member to its
// solo run, and traced missions to untraced ones. A mission fails if it
// returned an error or differs from its reference in any simulated
// statistic.
func verify(mapName string, rounds []*round) checkResult {
	var c checkResult
	var yaws []float64
	refs := map[float64]*experiments.MissionOutcome{}
	refErr := map[float64]error{}
	for _, rd := range rounds {
		if rd.err != nil {
			continue
		}
		for _, ms := range rd.missions {
			if _, ok := refs[ms.spec.StartYawDeg]; !ok {
				refs[ms.spec.StartYawDeg] = nil
				yaws = append(yaws, ms.spec.StartYawDeg)
			}
		}
	}
	// Reference missions are independent; run them on every CPU.
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, yaw := range yaws {
		wg.Add(1)
		sem <- struct{}{}
		go func(yaw float64) {
			defer wg.Done()
			defer func() { <-sem }()
			out, err := experiments.RunMission(missionSpec(mapName, yaw))
			mu.Lock()
			refs[yaw], refErr[yaw] = out, err
			mu.Unlock()
		}(yaw)
	}
	wg.Wait()

	type tally struct{ runs, bad int }
	tallies := map[float64]*tally{}
	for _, y := range yaws {
		tallies[y] = &tally{}
	}
	for _, rd := range rounds {
		if rd.err != nil {
			// An assembly failure fails every member of the round.
			c.attempted += rd.size
			c.failed += rd.size
			c.lines = append(c.lines, fmt.Sprintf("FAIL round assembly: %v", rd.err))
			continue
		}
		for _, ms := range rd.missions {
			c.attempted++
			t := tallies[ms.spec.StartYawDeg]
			t.runs++
			ref, rerr := refs[ms.spec.StartYawDeg], refErr[ms.spec.StartYawDeg]
			var why string
			switch {
			case ms.err != nil:
				why = ms.err.Error()
			case rerr != nil:
				why = "reference run: " + rerr.Error()
			default:
				got, want := outcomeOf(ms.res, ms.inferences), outcomeOf(ref.Result, len(ref.Inferences))
				if got != want {
					why = fmt.Sprintf("got %v, reference %v", got, want)
				}
			}
			if why != "" {
				c.failed++
				t.bad++
				c.lines = append(c.lines, fmt.Sprintf("FAIL yaw=%+.3f traced=%v: %s", ms.spec.StartYawDeg, ms.tr != nil, why))
			}
		}
	}
	for _, y := range yaws {
		ref, t := refs[y], tallies[y]
		if refErr[y] != nil || ref == nil {
			continue
		}
		c.lines = append(c.lines, fmt.Sprintf("mission yaw=%+.3f %v runs=%d mismatches=%d",
			y, outcomeOf(ref.Result, len(ref.Inferences)), t.runs, t.bad))
	}
	return c
}
