// Command rose-sweep regenerates the paper's evaluation tables and figures
// (the analogue of the artifact's run-all.sh + generate-figures.py): one
// experiment per table/figure of Section 5, printed as text rows and
// optionally exported as CSV series.
//
// Example:
//
//	rose-sweep -exp all -out results/
//	rose-sweep -exp figure12 -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dnn"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table3, figure10..figure16) or 'all'")
		scenario = flag.String("scenario", "", "run every sweep mission under this scenario catalog entry (family:seed)")
		quick    = flag.Bool("quick", false, "reduced sweep points and mission budgets")
		kernel   = flag.String("gemm-kernel", "", "force the GEMM microkernel: noasm, sse, avx2 (empty = auto-detect; env ROSE_GEMM_KERNEL)")
		prec     = flag.String("precision", "fp32", "inference datapath: fp32 or int8 (quantized Gemmini mode)")
		perClass = flag.Int("train-per-class", 200, "training samples per class for the model registry")
		outDir   = flag.String("out", "", "directory for CSV exports (empty = print only)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		metrics  = flag.String("metrics", "", "serve live metrics on this address (e.g. :9100)")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
		watchdog = flag.Duration("watchdog", 0, "quantum watchdog deadline (0 = off); a stalled quantum dumps the black box")
		blackbox = flag.String("blackbox", obs.DefaultBlackboxPath, "flight-recorder dump path (\"\" disables file dumps)")
		dialTO   = flag.Duration("dial-timeout", packet.DefaultDialTimeout, "process-wide TCP connect timeout for any remote endpoint")
		rpcTO    = flag.Duration("rpc-timeout", packet.DefaultRPCTimeout, "process-wide per-RPC I/O deadline for remote endpoints (0 = none)")
	)
	flag.Parse()
	dnn.RegistryTrainPerClass = *perClass
	// Sweeps construct their clients deep inside the experiment harnesses,
	// so the transport bounds apply process-wide.
	packet.DefaultDialTimeout = *dialTO
	packet.DefaultRPCTimeout = *rpcTO

	precision, err := dnn.ParsePrecision(*prec)
	if err != nil {
		log.Fatal(err)
	}
	if err := forceKernel(*kernel); err != nil {
		log.Fatal(err)
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = []string{*exp}
	}
	opt := experiments.Options{Quick: *quick, Precision: precision, Scenario: *scenario}
	if *scenario != "" {
		fmt.Printf("scenario: %s\n", *scenario)
	}
	if *traceOut != "" || *metrics != "" || *watchdog > 0 {
		traceEvents := 0
		if *traceOut != "" {
			traceEvents = -1
		}
		opt.Obs = obs.New(traceEvents)
		opt.Obs.Host = "rose-sweep"
		level, err := obs.ParseLevel(*logLevel)
		if err != nil {
			log.Fatal(err)
		}
		opt.Obs.Log.SetLevel(level)
		opt.Obs.Recorder.SetPath(*blackbox)
	}
	opt.Obs.SetMeta("gemm_kernel", tensor.ActiveKernel().String())
	opt.Obs.SetMeta("precision", precision.String())
	fmt.Printf("inference: kernel=%v precision=%v\n", tensor.ActiveKernel(), precision)
	defer func() { opt.Obs.RecoverPanic(recover()) }()
	if *watchdog > 0 {
		opt.Obs.Recorder.StartWatchdog(*watchdog)
		defer opt.Obs.Recorder.StopWatchdog()
	}
	if *metrics != "" {
		srv, err := opt.Obs.Serve(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	}

	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, opt)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Printf("\n=== %s — %s (%.1fs) ===\n", rep.ID, rep.Title, time.Since(start).Seconds())
		for _, l := range rep.Lines {
			fmt.Println("  " + l)
		}
		if *outDir != "" {
			if err := export(rep, *outDir); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *outDir != "" {
		// Stamp the sweep's inference configuration next to the series so an
		// exported results directory is self-describing: the kernel and
		// datapath shape the numbers but appear in no CSV column.
		if err := writeRunMeta(*outDir, map[string]string{
			"gemm_kernel": tensor.ActiveKernel().String(),
			"precision":   precision.String(),
			"quick":       fmt.Sprintf("%v", *quick),
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nCSV series written to %s\n", *outDir)
	}
	if opt.Obs != nil {
		fmt.Println()
		fmt.Print(telemetry.HealthStrip(opt.Obs.Summary()))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := opt.Obs.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
}

// forceKernel applies a -gemm-kernel override and surfaces an invalid
// ROSE_GEMM_KERNEL environment value, which package init deliberately
// ignores (auto-detection fallback) rather than failing every binary.
func forceKernel(name string) error {
	if err := tensor.KernelInitErr(); err != nil {
		fmt.Printf("warning: %v (auto-detection in effect)\n", err)
	}
	if name == "" {
		return nil
	}
	k, err := tensor.ParseKernel(name)
	if err != nil {
		return err
	}
	return tensor.ForceKernel(k)
}

func writeRunMeta(dir string, meta map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "run_meta.json"), append(data, '\n'), 0o644)
}

// exportFile creates path, runs write against it, and surfaces the Close
// error when the write itself succeeded — a full disk often shows up only at
// close, and a silently truncated CSV is worse than a failed sweep.
func exportFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	return nil
}

func export(rep *experiments.Report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if len(rep.Series) > 0 {
		if err := exportFile(filepath.Join(dir, rep.ID+"_series.csv"), func(w io.Writer) error {
			return telemetry.WriteSeriesCSV(w, rep.Series)
		}); err != nil {
			return err
		}
		if err := exportFile(filepath.Join(dir, rep.ID+"_series.json"), func(w io.Writer) error {
			return telemetry.WriteSeriesJSON(w, rep.Series)
		}); err != nil {
			return err
		}
	}
	for key, rows := range rep.Tables {
		if err := exportFile(filepath.Join(dir, fmt.Sprintf("%s_%s.csv", rep.ID, key)), func(w io.Writer) error {
			return telemetry.WriteTableCSV(w, rows)
		}); err != nil {
			return err
		}
		if err := exportFile(filepath.Join(dir, fmt.Sprintf("%s_%s.json", rep.ID, key)), func(w io.Writer) error {
			return telemetry.WriteTableJSON(w, rows)
		}); err != nil {
			return err
		}
	}
	for key, traj := range rep.Trajectories {
		if err := exportFile(filepath.Join(dir, fmt.Sprintf("%s_%s.csv", rep.ID, key)), func(w io.Writer) error {
			return telemetry.WriteTrajectoryCSV(w, traj)
		}); err != nil {
			return err
		}
	}
	return nil
}
