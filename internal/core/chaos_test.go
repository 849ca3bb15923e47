package core

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/soc"
)

// chaosDialer returns an env/soc DialOptions dialer routing every client
// connection through the injector.
func chaosDialer(inj *faultnet.Injector) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return inj.WrapConn(c), nil
	}
}

// resilOpts is the chaos-grade client configuration: tight backoff so tests
// stay fast, payload CRC so corruption is detectable, and a retry budget
// comfortably above the injector's destructive-fault budget (a streak of
// back-to-back faults must not be mistaken for a dead peer).
func resilOpts(inj *faultnet.Injector) env.DialOptions {
	return env.DialOptions{
		MaxRetries:  12,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		RPCTimeout:  250 * time.Millisecond,
		CRCPayload:  true,
		Dialer:      chaosDialer(inj),
	}
}

// gauntlet is a scripted schedule covering every fault kind once: each
// destructive firing kills the current connection, so the client's reconnect
// walks the script conn by conn.
func gauntlet() []faultnet.Fault {
	return []faultnet.Fault{
		{Conn: 0, Dir: faultnet.DirWrite, Op: 5, Kind: faultnet.Reset},
		{Conn: 1, Dir: faultnet.DirRead, Op: 4, Kind: faultnet.Cut},
		{Conn: 2, Dir: faultnet.DirRead, Op: 6, Kind: faultnet.Corrupt},
		{Conn: 3, Dir: faultnet.DirRead, Op: 8, Kind: faultnet.Blackhole},
		{Conn: 4, Dir: faultnet.DirWrite, Op: 11, Kind: faultnet.Latency, Latency: time.Millisecond},
	}
}

// TestChaosMissionByteIdentical is the headline chaos acceptance test: full
// loopback missions through a fault-injecting transport — one scripted run
// firing all five fault kinds, plus seeded probabilistic runs — must each
// recover to a result byte-identical to the fault-free baseline. The
// reconnect/replay/dedup machinery may never re-execute a side effect or
// drop a response, or the trajectory bytes diverge.
func TestChaosMissionByteIdentical(t *testing.T) {
	baseline := runMission(t, newEnv(t))

	runs := []struct {
		name string
		cfg  faultnet.Config
	}{
		{"scripted-gauntlet", faultnet.Config{Seed: 1, Script: gauntlet()}},
		{"seeded-7", seededChaos(7)},
		{"seeded-21", seededChaos(21)},
		{"seeded-99", seededChaos(99)},
	}

	kinds := map[faultnet.Kind]uint64{}
	for _, run := range runs {
		run := run
		t.Run(run.name, func(t *testing.T) {
			srv := env.NewServerOn(newEnv(t), listen(t))
			t.Cleanup(func() { srv.Close() })
			go srv.Serve()

			inj := faultnet.New(run.cfg)
			t.Cleanup(inj.CloseAll)
			suite := obs.New(0)
			client, err := env.DialWith(srv.Addr(), resilOpts(inj))
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.SetObs(suite.RPC)

			res := runMission(t, client)
			assertSameMission(t, baseline, res, run.name)
			if inj.Fired() == 0 {
				t.Fatal("chaos run fired no faults — the schedule never bit")
			}
			for k, n := range inj.Counts() {
				kinds[k] += n
			}
			t.Logf("%s: %d faults %v, %d reconnects, %d replayed frames",
				run.name, inj.Fired(), inj.Counts(),
				suite.RPC.Reconnects.Value(), suite.RPC.ReplayedFrames.Value())
		})
	}
	if len(kinds) < 5 {
		t.Fatalf("suite exercised %d fault kinds %v, want all 5", len(kinds), kinds)
	}
}

// seededChaos is the probabilistic schedule used by the seeded runs: mostly
// benign latency with a sprinkle of destructive faults, bounded so the
// mission always terminates.
func seededChaos(seed int64) faultnet.Config {
	return faultnet.Config{
		Seed:       seed,
		PLatency:   0.01,
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 200 * time.Microsecond,
		PCut:       0.002,
		PReset:     0.002,
		PBlackhole: 0.001,
		PCorrupt:   0.002,
		MaxFaults:  6,
	}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestChaosRemoteRTLByteIdentical runs the mirror-image deployment — the
// RTL engine behind soc.Server, the environment in-process — through the
// scripted gauntlet. Step responses are stateful (cycles advance), so
// byte-identical results prove the RTL server's dedup cache serves replays
// without re-stepping the machine.
func TestChaosRemoteRTLByteIdentical(t *testing.T) {
	runRTL := func(t *testing.T, rtl RTL) *Result {
		t.Helper()
		cfg := DefaultConfig()
		cfg.MaxSimSeconds = 3
		cfg.StopOnMissionComplete = false
		sy, err := New(newEnv(t), rtl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sy.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	local := soc.NewMachine(soc.Config{Core: soc.BOOM}, sensorLooper(3))
	defer local.Close()
	baseline := runRTL(t, local)

	remote := soc.NewMachine(soc.Config{Core: soc.BOOM}, sensorLooper(3))
	defer remote.Close()
	srv := soc.NewServerOn(remote, listen(t))
	defer srv.Close()
	go srv.Serve()

	inj := faultnet.New(faultnet.Config{Seed: 2, Script: gauntlet()})
	t.Cleanup(inj.CloseAll)
	rtl, err := soc.DialRTLWith(srv.Addr(), soc.DialOptions{
		MaxRetries:  12,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		RPCTimeout:  250 * time.Millisecond,
		CRCPayload:  true,
		Dialer:      chaosDialer(inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rtl.Close()

	res := runRTL(t, rtl)
	assertSameMission(t, baseline, res, "local vs chaos remote RTL")
	if counts := inj.Counts(); len(counts) < 5 {
		t.Fatalf("gauntlet fired %d of 5 fault kinds (%v)", len(counts), counts)
	}
}

// TestDeadEnvServerBoundedAbort hard-kills the env server mid-mission and
// requires a bounded-stall graceful abort: the client exhausts its capped
// exponential reconnect schedule (observed through a fake sleep — no real
// time passes), core.Run returns an error instead of hanging, and the
// flight recorder dumps a blackbox for the post-mortem.
func TestDeadEnvServerBoundedAbort(t *testing.T) {
	inj := faultnet.New(faultnet.Config{})
	srv := env.NewServerOn(newEnv(t), inj.WrapListener(listen(t)))
	go srv.Serve()

	var mu sync.Mutex
	var sleeps []time.Duration
	client, err := env.DialWith(srv.Addr(), env.DialOptions{
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		RPCTimeout:  250 * time.Millisecond,
		DialTimeout: time.Second,
		Dialer:      chaosDialer(inj),
		Sleep: func(d time.Duration) {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	suite := obs.New(64)
	bbPath := filepath.Join(t.TempDir(), "blackbox.json")
	suite.Recorder.SetPath(bbPath)
	client.SetObs(suite.RPC)
	client.SetTrace(suite.Run)

	m := soc.NewMachine(soc.Config{Core: soc.BOOM}, cruiser(3))
	defer m.Close()
	cfg := DefaultConfig()
	cfg.MaxSimSeconds = 1000 // far beyond what the kill lets run
	cfg.StopOnMissionComplete = false
	cfg.Obs = suite.Core
	sy, err := New(client, m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	runErr := make(chan error, 1)
	go func() {
		_, err := sy.Run()
		runErr <- err
	}()

	// Let a few quanta land, then kill the server: listener gone (dials are
	// refused) and every live connection severed.
	deadline := time.Now().Add(10 * time.Second)
	for suite.Core.Seq() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("mission never started")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	inj.CloseAll()

	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run succeeded against a dead server")
		}
		t.Logf("bounded abort: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung on a dead server — bounded-stall abort failed")
	}

	// The reconnect schedule is capped exponential: 1ms, 2ms, 4ms, 4ms.
	mu.Lock()
	got := append([]time.Duration(nil), sleeps...)
	mu.Unlock()
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	if len(got) < len(want) {
		t.Fatalf("recorded %d backoff sleeps %v, want at least %v", len(got), got, want)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("backoff schedule %v, want prefix %v", got, want)
		}
	}

	if suite.Recorder.FaultDumps.Value() < 1 {
		t.Fatalf("fault dumps = %d, want >= 1", suite.Recorder.FaultDumps.Value())
	}
	if _, err := os.Stat(bbPath); err != nil {
		t.Fatalf("no blackbox written: %v", err)
	}
}

// TestChaosSeedsAreReproducible reruns one seeded chaos mission with the
// same seed and requires the identical fault firing profile — the property
// that makes a chaos failure debuggable.
func TestChaosSeedsAreReproducible(t *testing.T) {
	profile := func() string {
		srv := env.NewServerOn(newEnv(t), listen(t))
		defer srv.Close()
		go srv.Serve()
		inj := faultnet.New(seededChaos(7))
		defer inj.CloseAll()
		client, err := env.DialWith(srv.Addr(), resilOpts(inj))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		res := runMission(t, client)
		return fmt.Sprintf("%v|%d|%x", inj.Counts(), inj.Fired(),
			trajectoryBytes(res.Trajectory)[:64])
	}
	a, b := profile(), profile()
	if a != b {
		t.Fatalf("same seed, different chaos:\n  %s\n  %s", a, b)
	}
}
