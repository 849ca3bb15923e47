package experiments

import (
	"bytes"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/env"
	"repro/internal/snapshot"
	"repro/internal/world"
)

// TestWarmstartQuick runs the warm-start experiment end to end: the
// experiment itself fails if any forked variant's trajectory differs from
// its cold-baseline twin, so a passing run is the parity proof at sweep
// scale.
func TestWarmstartQuick(t *testing.T) {
	r, err := Warmstart(Options{Quick: true, Workers: 1})
	if err != nil {
		t.Fatalf("Warmstart: %v", err)
	}
	if len(r.Lines) < 3 {
		t.Fatalf("report lines = %v", r.Lines)
	}
	found := false
	for _, l := range r.Lines {
		if strings.Contains(l, "identical cold-vs-warm: 3/3") {
			found = true
		}
	}
	if !found {
		t.Errorf("no full-parity line in report: %v", r.Lines)
	}
	if len(r.Trajectories) != 3 {
		t.Errorf("want 3 fork trajectories, got %d", len(r.Trajectories))
	}
}

// TestColdSweepRemoteEnvErrors: the cold baseline reseeds the live
// simulator at the divergence quantum, which a remote environment does not
// expose. Against a loopback env server the sweep must return an error, not
// dereference a missing in-process simulator.
func TestColdSweepRemoteEnvErrors(t *testing.T) {
	sim, err := env.New(env.DefaultConfig(world.Tunnel()))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := env.NewServerOn(sim, ln)
	go srv.Serve()
	defer srv.Close()

	spec := MissionSpec{
		Map: "tunnel", Model: "ResNet6", HW: config.A,
		VForward: 3, MaxSimSec: 2, EnvAddr: srv.Addr(),
	}
	if _, err := RunColdSweep(spec, 5, []int64{1}, 1); err == nil {
		t.Fatal("cold sweep against a remote environment returned no error")
	}
}

// TestSpecMetaRoundTrip: the spec subset embedded in an image's meta
// section must survive the JSON round trip exactly.
func TestSpecMetaRoundTrip(t *testing.T) {
	spec := paritySpec("s-shape").withDefaults()
	spec.SmallModel = "ResNet6"
	spec.ExchangeEveryN = 3
	spec.Argmax = true
	raw, err := spec.MetaSpec()
	if err != nil {
		t.Fatal(err)
	}
	img := &snapshot.Image{Meta: snapshot.Meta{Spec: raw}}
	got, err := SpecFromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Errorf("spec round trip:\n  want %+v\n  got  %+v", spec, got)
	}
}

// TestRestoreImageWithOverlapField pins the stored rose-snap/1 meta spec
// against a removed field: images from builds that had a synchronizer
// overlap mode carry "overlap":1 when captured in serial mode. The spec
// decoder must keep ignoring unknown fields, and the restored mission must
// reach the uninterrupted mission's final fingerprint.
func TestRestoreImageWithOverlapField(t *testing.T) {
	spec := paritySpec("tunnel")
	ref := runUninterrupted(t, spec)
	img := captureEncoded(t, spec)

	var fields map[string]json.RawMessage
	if err := json.Unmarshal(img.Meta.Spec, &fields); err != nil {
		t.Fatal(err)
	}
	fields["overlap"] = json.RawMessage("1")
	raw, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	img.Meta.Spec = raw
	enc, err := snapshot.Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	if img, err = snapshot.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(img.Meta.Spec, []byte(`"overlap":1`)) {
		t.Fatalf("spliced field lost in the container: %s", img.Meta.Spec)
	}

	got, err := SpecFromImage(img)
	if err != nil {
		t.Fatalf("SpecFromImage: %v", err)
	}
	if want := spec.withDefaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded spec:\n  want %+v\n  got  %+v", want, got)
	}
	out, err := ResumeMission(img, nil, false)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if out.Result.Fingerprint != ref.Result.Fingerprint {
		t.Errorf("restored fingerprint %016x, uninterrupted %016x", out.Result.Fingerprint, ref.Result.Fingerprint)
	}
	checkParity(t, ref, out)
}
