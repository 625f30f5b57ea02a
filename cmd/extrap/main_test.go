package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/profile"
	"extrap/internal/sim"
	"extrap/internal/timeline"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// runCmd dispatches a CLI command in-process and returns its output.
func runCmd(t *testing.T, cmd string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := dispatch(cmd, args, &buf); err != nil {
		t.Fatalf("extrap %s %v: %v", cmd, args, err)
	}
	return buf.String()
}

// inMemory is the in-memory pipeline oracle the streaming commands are
// checked against: the trace file read whole, translated into a
// materialized parallel trace, and simulated.
func inMemory(t *testing.T, path string, cfg sim.Config) (*translate.ParallelTrace, *sim.Result) {
	t.Helper()
	tr, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pt, res
}

func TestList(t *testing.T) {
	out := runCmd(t, "list")
	for _, want := range []string{"benchmarks:", "grid", "environments:", "cm5", "experiments:", "fig4"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunStatsTranslateSimulateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.xtrp")
	out := runCmd(t, "run", "-bench", "grid", "-n", "4", "-size", "16", "-iters", "10",
		"-verify", "-o", path)
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("run output: %q", out)
	}

	stats := runCmd(t, "stats", "-i", path)
	if !strings.Contains(stats, "threads=4") || !strings.Contains(stats, "barriers=") {
		t.Fatalf("stats output: %q", stats)
	}

	tl := runCmd(t, "translate", "-i", path)
	if !strings.Contains(tl, "ideal speedup") {
		t.Fatalf("translate output: %q", tl)
	}

	simOut := runCmd(t, "simulate", "-i", path, "-env", "cm5")
	for _, want := range []string{"environment: cm5", "compute", "ideal parallel time"} {
		if !strings.Contains(simOut, want) {
			t.Fatalf("simulate output missing %q: %q", want, simOut)
		}
	}
}

func TestRunTextFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.txt")
	runCmd(t, "run", "-bench", "cyclic", "-n", "2", "-size", "32", "-iters", "2",
		"-text", "-o", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "#xtrp text 1") {
		t.Fatalf("text trace header missing: %q", string(data[:40]))
	}
	// The text trace reads back through stats.
	stats := runCmd(t, "stats", "-i", path)
	if !strings.Contains(stats, "threads=2") {
		t.Fatalf("stats on text trace: %q", stats)
	}
}

func TestSimulateOverrides(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.xtrp")
	runCmd(t, "run", "-bench", "embar", "-n", "2", "-size", "8", "-o", path)

	base := runCmd(t, "simulate", "-i", path, "-env", "ideal")
	slow := runCmd(t, "simulate", "-i", path, "-env", "ideal", "-mips", "2.0")
	if base == slow {
		t.Error("-mips override had no effect on output")
	}
	pol := runCmd(t, "simulate", "-i", path, "-env", "generic-dm", "-policy", "poll", "-poll-interval", "50")
	if !strings.Contains(pol, "time=") {
		t.Fatalf("policy simulate output: %q", pol)
	}
}

func TestSimulateEmitTrace(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.xtrp")
	emitted := filepath.Join(dir, "extrap.xtrp")
	runCmd(t, "run", "-bench", "sort", "-n", "4", "-size", "64", "-o", src)
	out := runCmd(t, "simulate", "-i", src, "-env", "generic-dm", "-emit-trace", emitted)
	if !strings.Contains(out, "extrapolated trace written") {
		t.Fatalf("emit output: %q", out)
	}
	stats := runCmd(t, "stats", "-i", emitted)
	if !strings.Contains(stats, "msgs=") {
		t.Fatalf("extrapolated trace has no message events: %q", stats)
	}
}

// TestSimulateStreamMatchesInMemory: `simulate` runs every trace —
// binary or text — through the streaming pipeline; its report and its
// -emit-trace bytes must equal what the in-memory pipeline oracle
// (translate.Translate + sim.Simulate) computes from the same file.
func TestSimulateStreamMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.xtrp")
	runCmd(t, "run", "-bench", "grid", "-n", "4", "-size", "16", "-iters", "6", "-o", bin)
	txt := filepath.Join(dir, "g.txt")
	runCmd(t, "run", "-bench", "grid", "-n", "2", "-size", "16", "-iters", "2", "-text", "-o", txt)
	emit := filepath.Join(dir, "emit.xtrp")
	for _, path := range []string{bin, txt} {
		for _, tc := range []struct {
			env  string
			emit bool
		}{{"cm5", false}, {"generic-dm", true}} {
			env, err := machine.ByName(tc.env)
			if err != nil {
				t.Fatal(err)
			}
			args := []string{"-i", path, "-env", tc.env}
			cfg := env.Config
			if tc.emit {
				args = append(args, "-emit-trace", emit)
				cfg.EmitTrace = true
			}
			got := runCmd(t, "simulate", args...)

			pt, res := inMemory(t, path, cfg)
			var want bytes.Buffer
			printPrediction(&want, env, res, pt.Duration())
			if tc.emit {
				fmt.Fprintf(&want, "extrapolated trace written to %s\n", emit)
			}
			if got != want.String() {
				t.Errorf("%s on %s: simulate output differs from the in-memory oracle:\n--- oracle ---\n%s\n--- simulate ---\n%s",
					filepath.Base(path), tc.env, want.String(), got)
			}
			if !tc.emit {
				continue
			}
			gotBytes, err := os.ReadFile(emit)
			if err != nil {
				t.Fatal(err)
			}
			var wantBytes bytes.Buffer
			if err := trace.WriteBinary2(&wantBytes, res.Trace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes.Bytes()) {
				t.Errorf("%s: emitted trace differs from the in-memory oracle's", filepath.Base(path))
			}
		}
	}
}

// TestSimulateFastForwardsXTRP2: `simulate` on an XTRP2 file compiles
// it, so a loop-heavy grid trace fast-forwards, and it prints the report
// of the event-replay oracle: the compiled cursor behind a plain
// trace.Reader, which translation cannot see, so every event replays.
func TestSimulateFastForwardsXTRP2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.xtrp")
	runCmd(t, "run", "-bench", "grid", "-n", "16", "-o", path)
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	env, err := machine.ByName("cm5")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := trace.NewPatternSource(enc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.ExtrapolateReader(context.Background(), ps.Header(), struct{ trace.Reader }{ps}, env.Config)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	printPrediction(&want, env, ref.Result, ref.Ideal)

	before := sim.ReadReplayCounters()
	got := runCmd(t, "simulate", "-i", path, "-env", "cm5")
	if after := sim.ReadReplayCounters(); after.FastForwards == before.FastForwards {
		t.Error("simulate on an XTRP2 grid trace did not fast-forward")
	}
	if got != want.String() {
		t.Errorf("simulate output differs from the event-replay report:\n--- replay ---\n%s\n--- simulate ---\n%s", want.String(), got)
	}
}

// TestSweepFastForwardsXTRP2: `sweep` on an XTRP2 file compiles it once
// and replays it for every row, so a loop-heavy grid trace skips
// iterations, and it prints the table of the event-replay oracle: the
// compiled cursor behind a plain trace.Reader, which translation cannot
// see, so every event replays.
func TestSweepFastForwardsXTRP2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.xtrp")
	runCmd(t, "run", "-bench", "grid", "-n", "16", "-o", path)
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	env, err := machine.ByName("cm5")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "what-if sweep of %q on %s\n", "startup", env.Name)
	fmt.Fprintf(&want, "%-12s  %-14s  %s\n", "startup", "predicted", "vs first")
	var base vtime.Time
	for i, us := range []float64{5, 100} {
		ps, err := trace.NewPatternSource(enc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := env.Config
		cfg.Comm.StartupTime = vtime.FromMicros(us)
		ref, err := core.ExtrapolateReader(context.Background(), ps.Header(), struct{ trace.Reader }{ps}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := ref.Result.TotalTime
		if i == 0 {
			base = total
		}
		fmt.Fprintf(&want, "%-12v  %-14v  %.2f×\n", us, total, float64(total)/float64(base))
	}

	before := sim.ReadReplayCounters()
	got := runCmd(t, "sweep", "-i", path, "-env", "cm5", "-values", "5,100")
	if after := sim.ReadReplayCounters(); after.IterationsSkipped == before.IterationsSkipped {
		t.Error("sweep on an XTRP2 grid trace skipped no iterations")
	}
	if got != want.String() {
		t.Errorf("sweep output differs from the event-replay table:\n--- replay ---\n%s\n--- sweep ---\n%s", want.String(), got)
	}
}

// TestZeroTimeTracePrintsNoRatio: a ratio is printed only when its
// divisor is positive. On a trace whose ideal time is 0, simulate omits
// predicted/ideal. When sweep's first row predicts 0, "vs first" stays
// empty on every row: the first row remains the base, rather than the
// first non-zero row becoming it.
func TestZeroTimeTracePrintsNoRatio(t *testing.T) {
	dir := t.TempDir()
	zero := filepath.Join(dir, "zero.txt")
	compute := filepath.Join(dir, "compute.txt")
	for path, body := range map[string]string{
		zero:    "#threads 1\n0 thread-start t0 0 0 0\n0 thread-end t0 0 0 0\n",
		compute: "#threads 1\n0 thread-start t0 0 0 0\n1000 thread-end t0 0 0 0\n",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := runCmd(t, "simulate", "-i", zero)
	if strings.Contains(out, "NaN") || !strings.Contains(out, "\nideal parallel time: 0ns\n") {
		t.Errorf("simulate on a zero-time trace:\n%s", out)
	}
	for _, c := range []struct {
		path string
		args []string
		want string
	}{
		{zero, nil, `what-if sweep of "startup" on generic-dm
startup       predicted       vs first
5             0ns
25            0ns
100           0ns
200           0ns
`},
		{compute, []string{"-param", "mips", "-values", "0,1,2"}, `what-if sweep of "mips" on generic-dm
mips          predicted       vs first
0             0ns
1             1.000µs
2             2.000µs
`},
		{compute, []string{"-param", "mips", "-values", "1,2"}, `what-if sweep of "mips" on generic-dm
mips          predicted       vs first
1             1.000µs         1.00×
2             2.000µs         2.00×
`},
	} {
		if got := runCmd(t, "sweep", append([]string{"-i", c.path}, c.args...)...); got != c.want {
			t.Errorf("sweep %v on %s:\n%s\nwant:\n%s", c.args, filepath.Base(c.path), got, c.want)
		}
	}
}

// TestTextFilesReadLikeXTRP2: one measured trace written as text and
// as XTRP2 prints byte-identical stats, translate and simulate reports,
// and simulate, which XTRP2-encodes a text file, fast-forwards both
// alike.
func TestTextFilesReadLikeXTRP2(t *testing.T) {
	b, err := benchmarks.ByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Measure(b.Factory(benchmarks.Size{N: 16, Iters: 60})(4), core.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.xtrp")}
	for i, write := range []func(io.Writer, *trace.Trace) error{trace.WriteText, trace.WriteBinary2} {
		var buf bytes.Buffer
		if err := write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, cmd := range [][]string{{"stats"}, {"translate"}, {"simulate", "-env", "cm5"}} {
		var out [2]string
		var ffwds [2]uint64
		for i, path := range paths {
			before := sim.ReadReplayCounters().FastForwards
			out[i] = runCmd(t, cmd[0], append([]string{"-i", path}, cmd[1:]...)...)
			ffwds[i] = sim.ReadReplayCounters().FastForwards - before
		}
		if out[0] != out[1] {
			t.Errorf("%v: text file prints\n%s\nXTRP2 file prints\n%s", cmd, out[0], out[1])
		}
		if cmd[0] == "simulate" && (ffwds[0] != ffwds[1] || ffwds[1] == 0) {
			t.Errorf("simulate fast-forwarded %d times on the text file and %d on the XTRP2 file, want the same, and some", ffwds[0], ffwds[1])
		}
	}
}

// TestXTRP1FilesRefused: a file in XTRP1, the binary format of older
// releases, is refused by every command that reads a trace, with an
// error naming the format and the way forward, not parsed as text.
func TestXTRP1FilesRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.xtrp")
	// magic, 4 threads, no overhead, no phases, no events.
	if err := os.WriteFile(path, []byte("XTRP1\x04"+strings.Repeat("\x00", 23)), 0o644); err != nil {
		t.Fatal(err)
	}
	want := path + " is an XTRP1 trace, a format this build no longer reads: re-record it with `extrap run`, or convert it with `extrap export -format binary` on an older build"
	for _, cmd := range [][]string{
		{"stats"},
		{"translate"},
		{"simulate", "-env", "cm5"},
		{"profile"},
		{"profile", "-env", "cm5"},
		{"timeline", "-o", filepath.Join(dir, "tl.svg")},
		{"sweep"},
		{"export", "-o", filepath.Join(dir, "out.sddf")},
	} {
		err := dispatch(cmd[0], append([]string{"-i", path}, cmd[1:]...), io.Discard)
		if err == nil || err.Error() != want {
			t.Errorf("%v: err = %v, want %q", cmd, err, want)
		}
	}
}

// TestStatsRefusesExpandingXTRP2: a few bytes of XTRP2 repeat op can
// declare billions of events. `stats`, and every command that
// extrapolates a file, must fail on such a file at once, with memory
// bounded by the file, never by the declared count. The first file (51
// bytes) declares 1,099,503,238,916 events and the second (48 bytes,
// valid) 2^39, both past trace.MaxTraceEvents, so the header refuses
// them; the streaming pipeline would otherwise buffer the second's
// events while it looks for a second thread's first event. The third
// (47 bytes) declares 2^23 events, under the bound, and repeats a
// one-row pattern 2^22 times before an unknown opcode, which compiling
// it refuses before any event is expanded.
func TestStatsRefusesExpandingXTRP2(t *testing.T) {
	header := "XTRP2\x04" + strings.Repeat("\x00", 15)
	cases := []struct{ name, data, err string }{
		{
			"bad-opcode",
			header + "\x04\xff\x7f\xff\xff\x00\x00\x00\x01\x00\x00\x00\x01\x01\x00\x00\x00\x00\x00\x01\x00\x81\x80\x80%\x80\x80\x80\x80@",
			fmt.Sprintf("trace: 1099503238916 events declared, more than the %d a whole-trace read holds", trace.MaxTraceEvents),
		},
		{
			// nevents 2^39; one one-row pattern; repeat it 2^39 times.
			"past-bound",
			header + "\x00\x00\x00\x00\x80\x00\x00\x00" + "\x01\x00\x00\x00" +
				"\x01" + "\x01\x00\x00\x00\x00\x00" + "\x01\x00" + "\x80\x80\x80\x80\x80\x10",
			fmt.Sprintf("trace: %d events declared, more than the %d a whole-trace read holds", uint64(1)<<39, trace.MaxTraceEvents),
		},
		{
			// nevents 2^23; one one-row pattern; repeat it 2^22 times;
			// opcode 0x7f.
			"under-bound-bad-opcode",
			header + "\x00\x00\x80\x00\x00\x00\x00\x00" + "\x01\x00\x00\x00" +
				"\x01" + "\x01\x00\x00\x00\x00\x00" + "\x01\x00" + "\x80\x80\x80\x02" + "\x7f",
			"trace: event 4194304: unknown opcode 0x7f",
		},
	}
	dir := t.TempDir()
	commands := [][]string{
		{"stats"},
		{"simulate"},
		{"profile", "-env", "cm5"},
		{"timeline", "-o", filepath.Join(dir, "tl.svg")},
		{"sweep"},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".xtrp")
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, cmd := range commands {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := dispatch(cmd[0], append([]string{"-i", path}, cmd[1:]...), io.Discard)
			runtime.ReadMemStats(&after)
			if err == nil || err.Error() != c.err {
				t.Errorf("%v on %s (%d bytes): err = %v, want %q", cmd, c.name, len(c.data), err, c.err)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Errorf("%v: allocated %d bytes on the %d-byte %s file", cmd, grown, len(c.data), c.name)
			}
		}
	}
}

func TestExperimentQuick(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := cmdExperiment([]string{"-quick", "-csv", dir, "table3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MipsRatio") {
		t.Fatalf("experiment output: %q", buf.String())
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no CSVs written: %v %v", csvs, err)
	}
}

func TestErrorPaths(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch("bogus", nil, &buf); err != errUnknownCommand {
		t.Errorf("unknown command: %v", err)
	}
	if err := dispatch("run", []string{}, &buf); err == nil {
		t.Error("run without -bench accepted")
	}
	if err := dispatch("stats", []string{}, &buf); err == nil {
		t.Error("stats without -i accepted")
	}
	if err := dispatch("stats", []string{"-i", "/nonexistent.xtrp"}, &buf); err == nil {
		t.Error("stats on missing file accepted")
	}
	if err := dispatch("simulate", []string{"-i", "/nonexistent.xtrp"}, &buf); err == nil {
		t.Error("simulate on missing file accepted")
	}
	if err := dispatch("experiment", []string{"fig99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := dispatch("experiment", []string{}, &buf); err == nil {
		t.Error("experiment without id accepted")
	}
	if err := dispatch("run", []string{"-bench", "nosuch"}, &buf); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := dispatch("simulate", []string{"-i", "x", "-env", "nosuch"}, &buf); err == nil {
		t.Error("unknown environment accepted")
	}
}

func TestStatsRejectsCorruptTrace(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xtrp")
	if err := os.WriteFile(bad, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dispatch("stats", []string{"-i", bad}, &buf); err == nil {
		t.Error("corrupt trace accepted")
	}
}

// TestProfileCommand: `profile` prints, byte for byte, the profile of
// what the in-memory pipeline oracle computes from the same file — the
// translated trace without -env, the emitted trace of its simulation
// with it.
func TestProfileCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.xtrp")
	runCmd(t, "run", "-bench", "grid", "-n", "4", "-size", "16", "-iters", "6", "-o", path)

	env, err := machine.ByName("cm5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.Config
	cfg.EmitTrace = true
	pt, res := inMemory(t, path, cfg)
	render := func(header string, tr *trace.Trace) string {
		prof, err := profile.Analyze(tr)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString(header)
		prof.Render(&sb)
		return sb.String()
	}

	ideal := runCmd(t, "profile", "-i", path)
	if want := render(fmt.Sprintf("profile of the idealized parallel execution (total %v)\n\n", pt.Duration()), pt.Flatten()); ideal != want {
		t.Errorf("profile differs from the in-memory oracle:\n--- oracle ---\n%s\n--- profile ---\n%s", want, ideal)
	}
	pred := runCmd(t, "profile", "-i", path, "-env", "cm5")
	for _, want := range []string{"predicted execution", "phases (by total time):", "exchange", "costliest barriers"} {
		if !strings.Contains(pred, want) {
			t.Fatalf("profile -env output missing %q:\n%s", want, pred)
		}
	}
	if want := render(fmt.Sprintf("profile of the predicted execution on %q (total %v)\n\n", env.Name, res.TotalTime), res.Trace); pred != want {
		t.Errorf("profile -env differs from the in-memory oracle:\n--- oracle ---\n%s\n--- profile ---\n%s", want, pred)
	}
	var buf bytes.Buffer
	if err := dispatch("profile", []string{}, &buf); err == nil {
		t.Error("profile without -i accepted")
	}
	if err := dispatch("profile", []string{"-i", path, "-env", "nosuch"}, &buf); err == nil {
		t.Error("profile with unknown env accepted")
	}
}

func TestExperimentSVGOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := cmdExperiment([]string{"-quick", "-svg", dir, "fig5"}, &buf); err != nil {
		t.Fatal(err)
	}
	svgs, err := filepath.Glob(filepath.Join(dir, "*.svg"))
	if err != nil || len(svgs) == 0 {
		t.Fatalf("no SVGs written: %v %v", svgs, err)
	}
	data, err := os.ReadFile(svgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("output is not SVG")
	}
}

// TestTimelineCommand: `timeline` writes, byte for byte, the SVG and
// the totals of the in-memory pipeline oracle's emitted trace.
func TestTimelineCommand(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "g.xtrp")
	svgPath := filepath.Join(dir, "tl.svg")
	runCmd(t, "run", "-bench", "grid", "-n", "4", "-size", "16", "-iters", "6", "-o", tracePath)
	out := runCmd(t, "timeline", "-i", tracePath, "-env", "cm5", "-o", svgPath)
	if !strings.Contains(out, "compute=") || !strings.Contains(out, "barrier=") {
		t.Fatalf("timeline output: %q", out)
	}
	data, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("timeline did not write SVG")
	}

	env, err := machine.ByName("cm5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.Config
	cfg.EmitTrace = true
	_, res := inMemory(t, tracePath, cfg)
	tl, err := timeline.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var svg bytes.Buffer
	if err := tl.SVG(&svg, fmt.Sprintf("predicted execution on %s (%v)", env.Name, res.TotalTime)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, svg.Bytes()) {
		t.Error("timeline SVG differs from the in-memory oracle's")
	}
	totals := tl.Totals()
	want := fmt.Sprintf("wrote %s: compute=%v comm=%v barrier=%v\n",
		svgPath, totals[timeline.Compute], totals[timeline.Comm], totals[timeline.Barrier])
	if out != want {
		t.Errorf("timeline output %q, in-memory oracle %q", out, want)
	}
	var buf bytes.Buffer
	if err := dispatch("timeline", []string{}, &buf); err == nil {
		t.Error("timeline without -i accepted")
	}
}

// TestSweepCommand: every `sweep` parameter prints, byte for byte, the
// table the in-memory pipeline oracle computes from the same file.
func TestSweepCommand(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "c.xtrp")
	runCmd(t, "run", "-bench", "cyclic", "-n", "4", "-size", "64", "-iters", "4", "-o", tracePath)
	out := runCmd(t, "sweep", "-i", tracePath, "-param", "startup", "-values", "5,100")
	if !strings.Contains(out, "what-if sweep") || !strings.Contains(out, "1.00×") {
		t.Fatalf("sweep output: %q", out)
	}
	env := machine.GenericDM()
	for _, c := range []struct {
		param, values string
		set           func(*sim.Config, float64)
	}{
		{"startup", "5,100", func(c *sim.Config, v float64) { c.Comm.StartupTime = vtime.FromMicros(v) }},
		{"bandwidth", "1,2", func(c *sim.Config, v float64) { c.Comm.ByteTransferTime = vtime.FromMicros(1 / v) }},
		{"mips", "1,2", func(c *sim.Config, v float64) { c.MipsRatio = v }},
		{"service", "1,2", func(c *sim.Config, v float64) { c.Policy.ServiceTime = vtime.FromMicros(v) }},
		{"barrier-model", "1,2", func(c *sim.Config, v float64) { c.Barrier.ModelTime = vtime.FromMicros(v) }},
	} {
		got := runCmd(t, "sweep", "-i", tracePath, "-param", c.param, "-values", c.values)
		var want bytes.Buffer
		fmt.Fprintf(&want, "what-if sweep of %q on %s\n", c.param, env.Name)
		fmt.Fprintf(&want, "%-12s  %-14s  %s\n", c.param, "predicted", "vs first")
		var base vtime.Time
		for _, vs := range strings.Split(c.values, ",") {
			v, err := strconv.ParseFloat(vs, 64)
			if err != nil {
				t.Fatal(err)
			}
			cfg := env.Config
			c.set(&cfg, v)
			_, res := inMemory(t, tracePath, cfg)
			if base == 0 {
				base = res.TotalTime
			}
			fmt.Fprintf(&want, "%-12s  %-14v  %.2f×\n", vs, res.TotalTime, float64(res.TotalTime)/float64(base))
		}
		if got != want.String() {
			t.Errorf("sweep %s differs from the in-memory oracle:\n--- oracle ---\n%s\n--- sweep ---\n%s", c.param, want.String(), got)
		}
	}
	var buf bytes.Buffer
	if err := dispatch("sweep", []string{"-i", tracePath, "-param", "nosuch"}, &buf); err == nil {
		t.Error("unknown sweep parameter accepted")
	}
	if err := dispatch("sweep", []string{"-i", tracePath, "-values", "abc"}, &buf); err == nil {
		t.Error("non-numeric sweep value accepted")
	}
	if err := dispatch("sweep", []string{"-i", tracePath, "-param", "bandwidth", "-values", "0"}, &buf); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestExportCommand(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "c.xtrp")
	runCmd(t, "run", "-bench", "cyclic", "-n", "3", "-size", "32", "-iters", "2", "-o", src)

	sddf := filepath.Join(dir, "c.sddf")
	out := runCmd(t, "export", "-i", src, "-format", "sddf", "-o", sddf)
	if !strings.Contains(out, "wrote "+sddf) {
		t.Fatalf("export output: %q", out)
	}
	data, err := os.ReadFile(sddf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "SDDF-A") {
		t.Error("not an SDDF export")
	}

	splitDir := filepath.Join(dir, "split")
	out = runCmd(t, "export", "-i", src, "-format", "text", "-split", splitDir)
	if !strings.Contains(out, "3 per-thread translated traces") {
		t.Fatalf("split output: %q", out)
	}
	files, _ := filepath.Glob(filepath.Join(splitDir, "thread-*.xtrp"))
	if len(files) != 3 {
		t.Fatalf("split wrote %d files", len(files))
	}
	// Split traces are partial by design (one thread's events), so the
	// full-trace validator rejects them; check they are non-empty binary
	// traces instead.
	data, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 10 || string(data[:5]) != "XTRP2" {
		t.Fatalf("split file is not an XTRP2 trace (%d bytes)", len(data))
	}
	var buf bytes.Buffer
	if err := dispatch("export", []string{"-i", src, "-format", "bogus"}, &buf); err == nil {
		t.Error("unknown export format accepted")
	}
}

func TestCalibrateCommand(t *testing.T) {
	out := runCmd(t, "calibrate")
	for _, want := range []string{"this machine:", "MFLOPS", "MipsRatio host→sun4:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("calibrate output missing %q: %q", want, out)
		}
	}
}

// TestExperimentWorkloadSweep: `-workload spec.json` synthesizes the
// composed program and prints a table that is byte-identical across
// worker counts — the determinism CI diffs exactly this output.
func TestExperimentWorkloadSweep(t *testing.T) {
	spec := filepath.Join("..", "..", "internal", "compose", "testdata", "nested.json")
	runs := [][]string{
		{"-quick", "-workload", spec},
		{"-quick", "-workers", "4", "-workload", spec},
	}
	var want string
	for i, args := range runs {
		var buf bytes.Buffer
		if err := cmdExperiment(args, &buf); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		if i == 0 {
			want = buf.String()
			if !strings.Contains(want, "workload  wl:") || !strings.Contains(want, "wl/v1|") {
				t.Fatalf("workload sweep output missing name/canonical header:\n%s", want)
			}
			continue
		}
		if buf.String() != want {
			t.Errorf("args %v: output differs from baseline:\n%s\nvs\n%s", args, buf.String(), want)
		}
	}
}

// TestExperimentWorkloadFlagErrors: -workload replaces the experiment
// id, and a bad spec file fails loudly.
func TestExperimentWorkloadFlagErrors(t *testing.T) {
	if _, _, _, _, _, _, err := parseExperimentFlags([]string{"-workload", "spec.json", "fig4"}); err == nil {
		t.Error("-workload plus an experiment id should be rejected")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"root":{"kind":"warp"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdExperiment([]string{"-workload", bad}, new(bytes.Buffer)); err == nil {
		t.Error("invalid workload spec should fail cmdExperiment")
	}
}
