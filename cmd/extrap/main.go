// Command extrap is the command-line front end of the performance
// extrapolation system: it measures benchmarks on the instrumented
// 1-processor runtime, translates and inspects traces, extrapolates them
// to target environments, and regenerates every table and figure of the
// paper's evaluation.
//
// Usage:
//
//	extrap list                              inventory of benchmarks, environments, experiments
//	extrap run -bench grid -n 8 -o g.xtrp    measure a benchmark, write the trace
//	extrap stats -i g.xtrp                   trace statistics
//	extrap translate -i g.xtrp               translation summary (ideal parallel time)
//	extrap simulate -i g.xtrp -env cm5       extrapolate a trace to a target environment
//	extrap experiment fig4                   regenerate a paper experiment (or "all")
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/profile"
	"extrap/internal/sim"
	"extrap/internal/store"
	"extrap/internal/timeline"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := dispatch(os.Args[1], os.Args[2:], os.Stdout); err != nil {
		if err == errUnknownCommand {
			fmt.Fprintf(os.Stderr, "extrap: unknown command %q\n", os.Args[1])
			usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "extrap:", err)
		os.Exit(1)
	}
}

// errUnknownCommand reports an unrecognized subcommand.
var errUnknownCommand = errors.New("unknown command")

// dispatch routes a subcommand; out receives the command's report output.
func dispatch(cmd string, args []string, out io.Writer) error {
	switch cmd {
	case "list":
		return cmdList(out)
	case "run":
		return cmdRun(args, out)
	case "stats":
		return cmdStats(args, out)
	case "translate":
		return cmdTranslate(args, out)
	case "simulate":
		return cmdSimulate(args, out)
	case "profile":
		return cmdProfile(args, out)
	case "timeline":
		return cmdTimeline(args, out)
	case "sweep":
		return cmdSweep(args, out)
	case "export":
		return cmdExport(args, out)
	case "calibrate":
		return cmdCalibrate(out)
	case "experiment":
		return cmdExperiment(args, out)
	case "serve":
		return cmdServe(args, out)
	case "-h", "--help", "help":
		usage()
		return nil
	}
	return errUnknownCommand
}

func usage() {
	fmt.Fprint(os.Stderr, `extrap — performance extrapolation of parallel programs

commands:
  list        benchmarks, environments, and experiments
  run         measure a benchmark on the 1-processor instrumented runtime
  stats       print statistics of a trace file
  translate   translate a measurement trace (report ideal parallel time)
  simulate    extrapolate a trace to a target environment
  profile     phase/barrier/communication profile of a (predicted) execution
  timeline    per-thread activity timeline (SVG) of a predicted execution
  sweep       what-if sweep of one environment parameter over a trace
  export      convert a trace (sddf interop format, per-thread splitting)
  calibrate   measure this machine's flop rate; derive MipsRatio vs the models
  experiment  regenerate a paper table/figure (fig4..fig9, table1..table3,
              ablation-*, or "all"), or sweep a composed workload spec
              (-workload spec.json)
  serve       run the extrapolation JSON-over-HTTP API (see README)

run 'extrap <command> -h' for per-command flags.
`)
}

func cmdList(out io.Writer) error {
	fmt.Fprintln(out, "benchmarks:")
	for _, b := range benchmarks.All() {
		d := b.DefaultSize()
		fmt.Fprintf(out, "  %-8s %s (default N=%d iters=%d)\n", b.Name(), b.Description(), d.N, d.Iters)
	}
	fmt.Fprintln(out, "\nenvironments:")
	for _, e := range machine.Presets() {
		fmt.Fprintf(out, "  %-11s %s\n", e.Name, e.Description)
	}
	fmt.Fprintln(out, "\nexperiments:")
	for _, e := range experiments.All() {
		fmt.Fprintf(out, "  %-20s %s\n", e.ID, e.Title)
	}
	return nil
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name (see 'extrap list')")
	n := fs.Int("n", 8, "thread count")
	size := fs.Int("size", 0, "problem size N (0: benchmark default)")
	iters := fs.Int("iters", 0, "iterations (0: benchmark default)")
	mode := fs.String("mode", "actual", "transfer-size attribution: actual|estimate")
	verify := fs.Bool("verify", false, "verify the parallel result against the sequential reference")
	outPath := fs.String("o", "", "output trace file (default <bench>-<n>.xtrp)")
	text := fs.Bool("text", false, "write the text trace format instead of binary")
	overheadUs := fs.Float64("overhead", 0, "instrumentation overhead per event (µs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench == "" {
		return fmt.Errorf("run: -bench is required")
	}
	b, err := benchmarks.ByName(*bench)
	if err != nil {
		return err
	}
	sz := b.DefaultSize()
	if *size > 0 {
		sz.N = *size
	}
	if *iters > 0 {
		sz.Iters = *iters
	}
	sz.Verify = *verify
	opts := core.MeasureOptions{
		SizeMode:      sizeMode(*mode),
		EventOverhead: vtime.FromMicros(*overheadUs),
	}
	tr, err := core.Measure(b.Factory(sz)(*n), opts)
	if err != nil {
		return err
	}
	path := *outPath
	if path == "" {
		path = fmt.Sprintf("%s-%d.xtrp", *bench, *n)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if *text {
		err = trace.WriteText(f, tr)
	} else {
		err = trace.WriteBinary2(f, tr)
	}
	if err != nil {
		return err
	}
	s := trace.ComputeStats(tr)
	fmt.Fprintf(out, "wrote %s: %s\n", path, strings.ReplaceAll(s.String(), "\n", "; "))
	return nil
}

func sizeMode(s string) pcxx.SizeMode {
	if s == "estimate" {
		return pcxx.CompilerEstimate
	}
	return pcxx.ActualSize
}

// readTrace loads a trace file whole; see decodeTrace.
func readTrace(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeTrace(path, data)
}

// decodeTrace decodes a trace file's bytes: text by extension, XTRP2 or
// (from older releases) XTRP1 binary by magic, and text again when the
// bytes carry neither magic.
func decodeTrace(path string, data []byte) (*trace.Trace, error) {
	switch {
	case filepath.Ext(path) == ".txt":
		return trace.ReadText(bytes.NewReader(data))
	case trace.IsXTRP2(data):
		return trace.ReadBinary2(data)
	}
	tr, err := trace.ReadBinary(data)
	if err == trace.ErrBadMagic {
		return trace.ReadText(bytes.NewReader(data))
	}
	return tr, err
}

// printPrediction renders simulate's report for one prediction. The
// predicted/ideal ratio is printed only when the ideal time is positive.
func printPrediction(out io.Writer, env machine.Env, res *sim.Result, ideal vtime.Time) {
	fmt.Fprintf(out, "environment: %s (%s)\n", env.Name, env.Description)
	fmt.Fprintln(out, res)
	fmt.Fprintf(out, "ideal parallel time: %v", ideal)
	if ideal > 0 {
		fmt.Fprintf(out, "   predicted/ideal: %.2f", float64(res.TotalTime)/float64(ideal))
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, metrics.ComputeBreakdown(res))
}

// extrapolateFile runs a measurement trace file through the streaming
// pipeline once per config. An XTRP2 file is compiled once, as the
// server compiles its cached bytes, and each config replays a fresh
// cursor over it, so the simulation can fast-forward steady loop
// iterations. XTRP1 and text traces are read whole and streamed.
func extrapolateFile(path string, cfgs ...sim.Config) ([]*core.Prediction, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var hdr trace.Header
	var source func() trace.Reader
	if filepath.Ext(path) != ".txt" && trace.IsXTRP2(data) {
		ct, err := trace.CompileBinary(data)
		if err != nil {
			return nil, err
		}
		defer ct.Release()
		hdr, source = ct.Header(), func() trace.Reader { return ct.Source() }
	} else {
		tr, err := decodeTrace(path, data)
		if err != nil {
			return nil, err
		}
		hdr, source = tr.Header(), func() trace.Reader { return tr.Reader() }
	}
	preds := make([]*core.Prediction, len(cfgs))
	for i, cfg := range cfgs {
		if preds[i], err = core.ExtrapolateReader(context.Background(), hdr, source(), cfg); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats: -i is required")
	}
	tr, err := readTrace(*in)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trace fails validation: %w", err)
	}
	fmt.Fprintln(out, trace.ComputeStats(tr))
	return nil
}

func cmdTranslate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("translate", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("translate: -i is required")
	}
	tr, err := readTrace(*in)
	if err != nil {
		return err
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "threads=%d barriers=%d events=%d\n", pt.NumThreads, pt.Barriers, pt.Events())
	fmt.Fprintf(out, "1-processor (measured) time: %v\n", tr.Duration())
	fmt.Fprintf(out, "ideal %d-processor time:     %v\n", pt.NumThreads, pt.Duration())
	if pt.Duration() > 0 {
		fmt.Fprintf(out, "ideal speedup:               %.2f\n",
			float64(tr.Duration())/float64(pt.Duration()))
	}
	return nil
}

func cmdSimulate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	envName := fs.String("env", "generic-dm", "target environment preset (see 'extrap list')")
	procs := fs.Int("procs", 0, "processor count (0: one per thread)")
	mips := fs.Float64("mips", -1, "override MipsRatio (<0: preset value)")
	startupUs := fs.Float64("startup", -1, "override CommStartupTime in µs (<0: preset)")
	policy := fs.String("policy", "", "override service policy: no-interrupt|interrupt|poll")
	pollUs := fs.Float64("poll-interval", 500, "poll interval in µs (with -policy poll)")
	emit := fs.String("emit-trace", "", "write the extrapolated event trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("simulate: -i is required")
	}
	env, err := machine.ByName(*envName)
	if err != nil {
		return err
	}
	cfg := env.Config
	cfg.Procs = *procs
	if *mips >= 0 {
		cfg.MipsRatio = *mips
	}
	if *startupUs >= 0 {
		cfg.Comm.StartupTime = vtime.FromMicros(*startupUs)
	}
	switch *policy {
	case "":
	case "no-interrupt":
		cfg.Policy.Kind = sim.NoInterrupt
	case "interrupt":
		cfg.Policy.Kind = sim.Interrupt
	case "poll":
		cfg.Policy.Kind = sim.Poll
		cfg.Policy.PollInterval = vtime.FromMicros(*pollUs)
		if cfg.Policy.PollOverhead == 0 {
			cfg.Policy.PollOverhead = 2 * vtime.Microsecond
		}
	default:
		return fmt.Errorf("simulate: unknown policy %q", *policy)
	}
	cfg.EmitTrace = *emit != ""

	preds, err := extrapolateFile(*in, cfg)
	if err != nil {
		return err
	}
	pred := preds[0]
	printPrediction(out, env, pred.Result, pred.Ideal)
	if cfg.EmitTrace {
		f, err := os.Create(*emit)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteBinary2(f, pred.Result.Trace); err != nil {
			return err
		}
		fmt.Fprintf(out, "extrapolated trace written to %s\n", *emit)
	}
	return nil
}

// cmdProfile analyzes a trace for performance debugging. With -env it
// first extrapolates the measurement to that environment and profiles the
// predicted execution; without it, the trace is translated to the ideal
// parallel timescale and profiled directly.
func cmdProfile(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	in := fs.String("i", "", "input measurement trace file")
	envName := fs.String("env", "", "extrapolate to this environment before profiling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("profile: -i is required")
	}
	var target *trace.Trace
	if *envName != "" {
		env, err := machine.ByName(*envName)
		if err != nil {
			return err
		}
		cfg := env.Config
		cfg.EmitTrace = true
		preds, err := extrapolateFile(*in, cfg)
		if err != nil {
			return err
		}
		res := preds[0].Result
		fmt.Fprintf(out, "profile of the predicted execution on %q (total %v)\n\n",
			env.Name, res.TotalTime)
		target = res.Trace
	} else {
		tr, err := readTrace(*in)
		if err != nil {
			return err
		}
		pt, err := translate.Translate(tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "profile of the idealized parallel execution (total %v)\n\n", pt.Duration())
		target = pt.Flatten()
	}
	prof, err := profile.Analyze(target)
	if err != nil {
		return err
	}
	var sb strings.Builder
	prof.Render(&sb)
	fmt.Fprint(out, sb.String())
	return nil
}

// cmdTimeline extrapolates a trace and renders the predicted execution's
// per-thread activity timeline as SVG.
func cmdTimeline(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	in := fs.String("i", "", "input measurement trace file")
	envName := fs.String("env", "generic-dm", "target environment")
	svgPath := fs.String("o", "timeline.svg", "output SVG file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("timeline: -i is required")
	}
	env, err := machine.ByName(*envName)
	if err != nil {
		return err
	}
	cfg := env.Config
	cfg.EmitTrace = true
	preds, err := extrapolateFile(*in, cfg)
	if err != nil {
		return err
	}
	res := preds[0].Result
	tl, err := timeline.Build(res.Trace)
	if err != nil {
		return err
	}
	f, err := os.Create(*svgPath)
	if err != nil {
		return err
	}
	defer f.Close()
	title := fmt.Sprintf("predicted execution on %s (%v)", env.Name, res.TotalTime)
	if err := tl.SVG(f, title); err != nil {
		return err
	}
	totals := tl.Totals()
	fmt.Fprintf(out, "wrote %s: compute=%v comm=%v barrier=%v\n",
		*svgPath, totals[timeline.Compute], totals[timeline.Comm], totals[timeline.Barrier])
	return nil
}

// cmdSweep answers "what if" questions: it extrapolates one trace across
// a ladder of values for a single environment parameter. "vs first" is
// each row's time relative to the first row's, printed only when that
// time is positive.
func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	in := fs.String("i", "", "input measurement trace file")
	envName := fs.String("env", "generic-dm", "base environment")
	param := fs.String("param", "startup", "parameter to sweep: startup|bandwidth|mips|service|barrier-model")
	values := fs.String("values", "5,25,100,200", "comma-separated values (µs for times, MB/s for bandwidth, ratio for mips)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("sweep: -i is required")
	}
	env, err := machine.ByName(*envName)
	if err != nil {
		return err
	}
	vals := strings.Split(*values, ",")
	cfgs := make([]sim.Config, len(vals))
	for i, vs := range vals {
		v, err := strconv.ParseFloat(strings.TrimSpace(vs), 64)
		if err != nil {
			return fmt.Errorf("sweep: bad value %q: %w", vs, err)
		}
		cfg := env.Config
		switch *param {
		case "startup":
			cfg.Comm.StartupTime = vtime.FromMicros(v)
		case "bandwidth":
			if v <= 0 {
				return fmt.Errorf("sweep: bandwidth must be positive")
			}
			cfg.Comm.ByteTransferTime = vtime.FromMicros(1 / v) // MB/s → µs/B
		case "mips":
			cfg.MipsRatio = v
		case "service":
			cfg.Policy.ServiceTime = vtime.FromMicros(v)
		case "barrier-model":
			cfg.Barrier.ModelTime = vtime.FromMicros(v)
		default:
			return fmt.Errorf("sweep: unknown parameter %q", *param)
		}
		cfgs[i] = cfg
	}
	preds, err := extrapolateFile(*in, cfgs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "what-if sweep of %q on %s\n", *param, env.Name)
	fmt.Fprintf(out, "%-12s  %-14s  %s\n", *param, "predicted", "vs first")
	base := preds[0].Result.TotalTime
	for i, pred := range preds {
		t := pred.Result.TotalTime
		if base > 0 {
			fmt.Fprintf(out, "%-12s  %-14v  %.2f×\n", vals[i], t, float64(t)/float64(base))
		} else {
			fmt.Fprintf(out, "%-12s  %v\n", vals[i], t)
		}
	}
	return nil
}

// cmdExport converts a trace: SDDF interop output, or the paper's
// per-thread translated trace files.
func cmdExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	format := fs.String("format", "sddf", "output format: sddf|text|binary")
	outPath := fs.String("o", "", "output file (default derived from input)")
	split := fs.String("split", "", "also write translated per-thread traces into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("export: -i is required")
	}
	tr, err := readTrace(*in)
	if err != nil {
		return err
	}
	path := *outPath
	if path == "" {
		ext := map[string]string{"sddf": ".sddf", "text": ".txt", "binary": ".xtrp"}[*format]
		if ext == "" {
			return fmt.Errorf("export: unknown format %q", *format)
		}
		path = strings.TrimSuffix(*in, filepath.Ext(*in)) + ext
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch *format {
	case "sddf":
		err = trace.WriteSDDF(f, tr)
	case "text":
		err = trace.WriteText(f, tr)
	case "binary":
		err = trace.WriteBinary2(f, tr)
	default:
		return fmt.Errorf("export: unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%s)\n", path, *format)
	if *split != "" {
		pt, err := translate.Translate(tr)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*split, 0o755); err != nil {
			return err
		}
		for i := 0; i < pt.NumThreads; i++ {
			tp := filepath.Join(*split, fmt.Sprintf("thread-%03d.xtrp", i))
			tf, err := os.Create(tp)
			if err != nil {
				return err
			}
			if err := trace.WriteBinary2(tf, pt.ThreadTrace(i)); err != nil {
				tf.Close()
				return err
			}
			if err := tf.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "wrote %d per-thread translated traces into %s\n", pt.NumThreads, *split)
	}
	return nil
}

// cmdCalibrate runs the paper's MFLOPS microbenchmark against the real
// host and reports how to scale to/from the modeled machines.
func cmdCalibrate(out io.Writer) error {
	host := pcxx.CalibrateHost()
	hostMF := machine.MeasureMFLOPS(host)
	sun := machine.MeasureMFLOPS(pcxx.Sun4())
	cm5 := machine.MeasureMFLOPS(pcxx.CM5Node())
	fmt.Fprintf(out, "this machine:        %.1f MFLOPS (%v per flop)\n", hostMF, host.FlopTime)
	fmt.Fprintf(out, "modeled Sun 4:       %.4f MFLOPS\n", sun)
	fmt.Fprintf(out, "modeled CM-5 node:   %.4f MFLOPS\n", cm5)
	fmt.Fprintf(out, "MipsRatio host→sun4: %.4f\n", machine.DeriveMipsRatio(host, pcxx.Sun4()))
	fmt.Fprintf(out, "MipsRatio host→cm5:  %.4f\n", machine.DeriveMipsRatio(host, pcxx.CM5Node()))
	fmt.Fprintln(out, "use these ratios as -mips when extrapolating traces whose compute")
	fmt.Fprintln(out, "costs were charged with the calibrated host model")
	return nil
}

// parseExperimentFlags turns the experiment subcommand's arguments into
// the engine Options plus output destinations. Split from cmdExperiment
// (and parsed with ContinueOnError) so flag plumbing is testable without
// the flag package exiting the process.
func parseExperimentFlags(args []string) (opts experiments.Options, id, workloadPath, csvDir, svgDir, storeDir string, err error) {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "small problem sizes and a short processor ladder")
	workers := fs.Int("workers", 0, "worker goroutines for the measurement/simulation grid (0 = all CPUs, 1 = sequential; output is identical at any value)")
	csv := fs.String("csv", "", "also write each table as CSV into this directory")
	svg := fs.String("svg", "", "also write each figure as SVG into this directory")
	storeFlag := fs.String("store", "", "durable artifact store directory: measurements persist there and repeated runs reuse them instead of re-measuring (empty = in-memory only)")
	modeFlag := fs.String("mode", "", "grid mode: exact (default — simulate every ladder cell) or fitted (simulate sparse anchors, answer the rest from an analytic least-squares fit)")
	workloadFlag := fs.String("workload", "", "sweep a composed workload (JSON pattern spec file) over the modeled machines instead of running a registered experiment")
	if err = fs.Parse(args); err != nil {
		return opts, "", "", "", "", "", err
	}
	if *workers < 0 {
		return opts, "", "", "", "", "", fmt.Errorf("experiment: -workers must be ≥ 0 (0 = all CPUs), got %d", *workers)
	}
	switch {
	case *workloadFlag == "" && fs.NArg() != 1:
		return opts, "", "", "", "", "", fmt.Errorf("experiment: exactly one experiment id (or \"all\") required")
	case *workloadFlag != "" && fs.NArg() != 0:
		return opts, "", "", "", "", "", fmt.Errorf("experiment: -workload replaces the experiment id; drop %q", fs.Arg(0))
	}
	mode := *modeFlag
	switch mode {
	case "", "exact":
		mode = ""
	case "fitted":
	default:
		return opts, "", "", "", "", "", fmt.Errorf("experiment: -mode must be \"exact\" or \"fitted\", got %q", mode)
	}
	return experiments.Options{Quick: *quick, Workers: *workers, FitMode: mode}, fs.Arg(0), *workloadFlag, *csv, *svg, *storeFlag, nil
}

func cmdExperiment(args []string, w io.Writer) error {
	opts, id, workloadPath, csvDir, svgDir, storeDir, err := parseExperimentFlags(args)
	if err != nil {
		return err
	}
	if storeDir != "" {
		st, err := store.Open(storeDir, 0)
		if err != nil {
			return err
		}
		defer st.Close()
		opts.Backend = st
	}
	if workloadPath != "" {
		return runWorkloadSweep(opts, workloadPath, w)
	}
	var exps []experiments.Experiment
	if id == "all" {
		exps = experiments.All()
	} else {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		exps = []experiments.Experiment{e}
	}
	for _, e := range exps {
		out, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		out.Render(w)
		if csvDir != "" {
			if err := writeCSVs(csvDir, out); err != nil {
				return err
			}
		}
		if svgDir != "" {
			if err := writeSVGs(svgDir, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// workloadMachines and workloadLadder fix the sweep grid for
// `extrap experiment -workload`: the machine set and processor ladder
// are not flags, so the printed table is a pure function of the spec
// file — CI diffs the output across -workers to prove the
// synthesis pipeline deterministic.
var workloadMachines = []string{"cm5", "generic-dm", "shared-mem"}

func workloadLadder(quick bool) []int {
	if quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// runWorkloadSweep parses a composed-workload spec file, synthesizes its
// pcxx program, and sweeps it over the fixed machine set and ladder
// through the same Service `extrap serve` runs, printing one exact
// integer-nanosecond cell per (procs, machine). The table is
// byte-identical at any worker count — the same invariant the
// registered experiments carry.
func runWorkloadSweep(opts experiments.Options, path string, w io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	wl, err := compose.FromJSON(raw)
	if err != nil {
		return fmt.Errorf("experiment: workload %s: %w", path, err)
	}

	svc := experiments.NewService(opts.Workers, 64, 0)
	if opts.Backend != nil {
		svc.SetBackend(opts.Backend)
	}

	sz := wl.DefaultSize()
	ladder := workloadLadder(opts.Quick)
	jobs := make([]experiments.SweepJob, len(workloadMachines))
	for i, name := range workloadMachines {
		env, err := machine.ByName(name)
		if err != nil {
			return err
		}
		jobs[i] = experiments.SweepJob{
			Name:    wl.Name(),
			Size:    sz,
			Factory: wl.Factory(sz),
			Mode:    pcxx.ActualSize,
			Cfg:     env.Config,
			Procs:   ladder,
		}
	}
	var curves [][]metrics.Point
	if opts.FitMode == "fitted" {
		curves, err = svc.SweepGridFitted(context.Background(), jobs)
	} else {
		curves, err = svc.SweepGrid(context.Background(), jobs)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "workload  %s\n", wl.Name())
	fmt.Fprintf(w, "canonical %s\n", wl.Canonical())
	fmt.Fprintf(w, "nodes %d  depth %d  size %d  iters %d\n\n", wl.Nodes(), wl.Depth(), sz.N, sz.Iters)
	fmt.Fprintf(w, "%6s", "procs")
	for _, name := range workloadMachines {
		fmt.Fprintf(w, "  %16s", name)
	}
	fmt.Fprintln(w)
	for pi := range ladder {
		fmt.Fprintf(w, "%6d", curves[0][pi].Procs)
		for mi := range workloadMachines {
			fmt.Fprintf(w, "  %16d", int64(curves[mi][pi].Time))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// writeSVGs renders each figure of an experiment as an SVG file.
func writeSVGs(dir string, out *experiments.Output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range out.Figures {
		path := filepath.Join(dir, fmt.Sprintf("%s-fig%d.svg", out.ID, i+1))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := out.Figures[i].SVG(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVs(dir string, out *experiments.Output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range out.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s-table%d.csv", out.ID, i+1))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		out.Tables[i].CSV(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	for i := range out.Figures {
		t := out.Figures[i].Table()
		path := filepath.Join(dir, fmt.Sprintf("%s-fig%d.csv", out.ID, i+1))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		t.CSV(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
