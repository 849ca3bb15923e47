package experiments

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/scenario"
	"repro/internal/world"
)

// This file implements multi-drone scenario missions: N full co-simulation
// stacks (simulator, SoC machine, controller) flying one shared world in
// lockstep. The fleet members share the read-only map geometry through one
// *world.Map pointer (the same copy-on-write path warm-start forks use) and
// sense each other as collision bodies refreshed at every synchronization
// quantum — peer poses are exchanged at quantum boundaries only, exactly the
// cadence at which the co-simulation exchanges any cross-domain data.

// swarmLaneSpacing is the lateral fan-out between fleet start positions (m).
const swarmLaneSpacing = 1.2

// FleetSize reports the drone count a scenario name implies: 1 for the
// empty name, single-drone scenarios, and unknown names (RunMission surfaces
// the resolution error with the full catalog; this is only a dispatch hint).
func FleetSize(scenarioName string) int {
	if s := scenario.ByName(scenarioName); s != nil && s.Drones > 1 {
		return s.Drones
	}
	return 1
}

// SwarmSpecs expands a fleet mission spec into its per-drone specs: drone i
// gets its own scenario RNG stream block (via Drone), a decorrelated sensor
// seed, a lateral start lane, and — when the spec is observed without a
// mission scope — its own observability scope, so each drone publishes
// live-stream frames, metrics and its fingerprint gauge under its own
// mission ID. The scenario must name a fleet (Drones > 1).
func SwarmSpecs(spec MissionSpec) ([]MissionSpec, error) {
	spec = spec.withDefaults()
	scn, err := spec.scenarioSpec()
	if err != nil {
		return nil, err
	}
	n := 1
	if scn != nil && scn.Drones > 1 {
		n = scn.Drones
	}
	if n <= 1 {
		return nil, fmt.Errorf("experiments: scenario %q is not a fleet (drones = %d)", spec.Scenario, n)
	}
	specs := make([]MissionSpec, n)
	for i := range specs {
		s := spec
		s.Drone = i
		s.Seed = spec.Seed + int64(i)*101
		s.StartY = spec.StartY + (float64(i)-float64(n-1)/2)*swarmLaneSpacing
		if s.ObsMission == nil {
			s.ObsMission = s.obsScope()
		}
		specs[i] = s
	}
	return specs, nil
}

// RunSwarm flies a fleet scenario: the drones' full stacks advance in
// lockstep, one synchronization quantum at a time, each sensing the others'
// previous-quantum poses (see step). Outcomes are indexed by drone.
func RunSwarm(spec MissionSpec) ([]*MissionOutcome, error) {
	specs, err := SwarmSpecs(spec)
	if err != nil {
		return nil, err
	}
	m := world.ByName(specs[0].Map)
	if m == nil {
		return nil, fmt.Errorf("experiments: unknown map %q", specs[0].Map)
	}
	missions := make([]*mission, 0, len(specs))
	defer func() {
		for _, ms := range missions {
			ms.close()
		}
	}()
	for i, sp := range specs {
		ms, err := assemble(sp, m, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: assembling drone %d: %w", i, err)
		}
		missions = append(missions, ms)
	}
	return drive(missions, 0, nil)
}

// RunMissionWithFault runs one mission stepwise and invokes inject on the
// live simulator at the given quantum boundary — the seeded fault-injection
// hook the mission fuzzer uses to prove divergence bisection localizes a
// perturbation to the quantum it happened in.
func RunMissionWithFault(spec MissionSpec, faultQuantum int, inject func(*env.Sim)) (*MissionOutcome, error) {
	ms, err := assemble(spec, nil, nil)
	if err != nil {
		return nil, err
	}
	defer ms.close()
	outs, err := drive([]*mission{ms}, uint64(max(faultQuantum, 0)), func() (bool, error) {
		if inject != nil {
			inject(ms.sim)
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}
