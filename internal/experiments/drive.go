package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/world"
)

// This file holds the package's one mission driver and its one worker pool.
// Every entry point — plain runs, resumes, snapshot capture, the cold
// warm-start baseline, fault injection, lockstep fleets — assembles its
// missions and hands them to drive; every sweep fans out through ForEach.

// drive runs assembled missions through the synchronizer's stepwise API and
// returns their outcomes, indexed like missions.
//
// With a hook, every mission first steps to quantum at (0 = before the
// first quantum) and hook runs at that boundary. A hook reaches the live
// simulator, so hooked missions must have an in-process environment. When
// hook reports stop, drive returns there without finishing the missions
// (snapshot capture abandons its prefix mission).
//
// The missions then run to completion: a lone mission in one StepQuanta
// call, a fleet (N > 1) in lockstep with peer exchange (see step). Errors
// from a fleet name the drone's index.
func drive(missions []*mission, at uint64, hook func() (stop bool, err error)) ([]*MissionOutcome, error) {
	droneErr := func(i int, err error) error {
		if len(missions) == 1 {
			return err
		}
		return fmt.Errorf("experiments: drone %d: %w", i, err)
	}
	for i, ms := range missions {
		if hook != nil && ms.sim == nil {
			return nil, fmt.Errorf("experiments: quantum hooks require an in-process environment (remote env state is server-owned)")
		}
		if err := ms.sy.Start(); err != nil {
			return nil, droneErr(i, err)
		}
	}
	done := make([]bool, len(missions))
	if hook != nil {
		if at > 0 {
			if err := step(missions, done, int(at)); err != nil {
				return nil, err
			}
			for _, d := range done {
				if d {
					return nil, fmt.Errorf("experiments: mission ended before quantum %d", at)
				}
			}
		}
		stop, err := hook()
		if err != nil || stop {
			return nil, err
		}
	}
	if err := step(missions, done, 0); err != nil {
		return nil, err
	}
	outs := make([]*MissionOutcome, len(missions))
	for i, ms := range missions {
		res, err := ms.sy.Finish()
		if err != nil {
			return nil, droneErr(i, err)
		}
		outs[i] = &MissionOutcome{Spec: ms.spec, Result: res, Inferences: ms.log.Records()}
	}
	return outs, nil
}

// step advances every unfinished mission by up to k quanta (k <= 0: until
// done), setting done[i] when mission i reaches a terminal condition. A lone
// mission steps in one call and never sees a peer. A fleet steps one quantum
// at a time: before each quantum, every drone's simulator gets the other
// drones' poses from the previous quantum boundary (double-buffered, so
// stepping order cannot influence results), and drones that finish early
// stay parked in the world as sensable bodies.
func step(missions []*mission, done []bool, k int) error {
	if len(missions) == 1 {
		d, err := missions[0].sy.StepQuanta(k)
		done[0] = d
		return err
	}
	// bodies holds every drone's pose at the last completed quantum; peers
	// is the scratch each SetPeers copies from.
	n := len(missions)
	bodies := make([]world.Body, n)
	for i, ms := range missions {
		bodies[i] = ms.sim.BodyState()
	}
	peers := make([]world.Body, 0, n-1)
	for q := 0; k <= 0 || q < k; q++ {
		remaining := 0
		for i, ms := range missions {
			if done[i] {
				continue
			}
			peers = peers[:0]
			for j := range bodies {
				if j != i {
					peers = append(peers, bodies[j])
				}
			}
			ms.sim.SetPeers(peers)
			d, err := ms.sy.StepQuanta(1)
			if err != nil {
				return fmt.Errorf("experiments: drone %d: %w", i, err)
			}
			done[i] = d
			if !d {
				remaining++
			}
		}
		for i, ms := range missions {
			bodies[i] = ms.sim.BodyState()
		}
		if remaining == 0 {
			break
		}
	}
	return nil
}

// ForEach is the package's one worker pool: it calls fn(i) for every i in
// [0, n) on up to workers goroutines (<= 0 means GOMAXPROCS; capped at n).
// Every index is attempted even after a failure, and the first error in
// index order — not completion order — is returned, so failure reporting is
// as deterministic as results that fn writes to index-addressed slots.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := range n {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// outcomes runs fn for every index in [0, n) on the pool and returns the
// mission outcomes indexed like the calls.
func outcomes(n, workers int, fn func(i int) (*MissionOutcome, error)) ([]*MissionOutcome, error) {
	outs := make([]*MissionOutcome, n)
	err := ForEach(n, workers, func(i int) (err error) {
		outs[i], err = fn(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}
