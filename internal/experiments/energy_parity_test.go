package experiments

import (
	"fmt"
	"testing"

	"repro/internal/soc"
)

// TestEnergyParity: the energy ledger is as deterministic as the cycle
// counter. One mission run locally and against a TCP-remote RTL must produce
// a byte-identical EnergyBreakdown; the local run is the reference.
func TestEnergyParity(t *testing.T) {
	spec := paritySpec("tunnel")
	ref := runUninterrupted(t, spec)
	if !ref.Result.HasEnergy {
		t.Fatal("reference mission produced no energy breakdown")
	}
	b := ref.Result.Energy
	// Config A has a Gemmini, so every domain must have accumulated charge:
	// a zero domain means a charging site was missed, not a cheap mission.
	if b.Dynamic.CorePJ == 0 || b.Dynamic.AccelPJ == 0 || b.Dynamic.MemPJ == 0 || b.Static.TotalPJ() == 0 {
		t.Fatalf("energy domain missing charge: %+v", b)
	}

	t.Run("remote", func(t *testing.T) {
		res, err := dialRemoteMission(t, spec, nil).sy.Run()
		if err != nil {
			t.Fatalf("remote mission: %v", err)
		}
		if !res.HasEnergy {
			t.Fatal("mission produced no energy breakdown")
		}
		if res.Energy != b {
			t.Errorf("energy diverges from the local reference:\n  local  %+v\n  remote %+v", b, res.Energy)
		}
	})
}

// TestRestorePreEnergyImage: restoring an image that predates the energy
// ledger (no "nrgy" section → HasEnergy == false, zeroed ledger) must work —
// warn, restart accounting from zero — never fail. The restored run's total
// covers only the resumed portion, so it lands strictly below the
// uninterrupted run's.
func TestRestorePreEnergyImage(t *testing.T) {
	spec := paritySpec("tunnel")
	ref := runUninterrupted(t, spec)
	img := captureEncoded(t, spec)

	// Decode of a stripped pre-energy image yields exactly this state (the
	// container-level strip is covered in internal/snapshot).
	img.HasEnergy = false
	img.SoC.Stats.Energy = soc.EnergyLedger{}

	ms, err := assemble(spec, nil, img)
	if err != nil {
		t.Fatalf("pre-energy restore failed: %v", err)
	}
	defer ms.close()
	outs, err := drive([]*mission{ms}, 0, nil)
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	got := outs[0]
	// Trajectory parity is unaffected — the ledger is observation-only.
	checkTrajectory(t, ref, got)
	if !got.Result.HasEnergy {
		t.Fatal("resumed portion accumulated no energy")
	}
	if got, want := got.Result.Energy.Dynamic.TotalPJ(), ref.Result.Energy.Dynamic.TotalPJ(); got >= want {
		t.Errorf("post-restore dynamic energy %d pJ not below uninterrupted %d pJ", got, want)
	}
}

// TestEnergyOffZeroLedger: the EnergyOff knob fully disables accounting —
// the mission still runs (cycle-identical) but reports no energy.
func TestEnergyOffZeroLedger(t *testing.T) {
	spec := paritySpec("tunnel")
	ref := runUninterrupted(t, spec)

	off := spec
	off.EnergyOff = true
	out, err := RunMission(off)
	if err != nil {
		t.Fatalf("energy-off mission: %v", err)
	}
	if out.Result.HasEnergy || out.Result.Energy.TotalPJ() != 0 {
		t.Errorf("energy-off mission reported energy: %+v (hasEnergy=%v)",
			out.Result.Energy, out.Result.HasEnergy)
	}
	// Accounting must be observation-only: turning it off cannot change what
	// the mission does.
	if out.Result.Cycles != ref.Result.Cycles {
		t.Errorf("energy-off changed timing: %d cycles vs %d", out.Result.Cycles, ref.Result.Cycles)
	}
	if fmt.Sprint(out.Result.Trajectory) != fmt.Sprint(ref.Result.Trajectory) {
		t.Error("energy-off changed the trajectory")
	}
}
