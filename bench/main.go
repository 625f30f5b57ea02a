// Command bench is the end-to-end benchmark of `extrap serve`. It builds
// ./cmd/extrap from the checkout it runs in, starts the server as a
// child process on loopback, and drives one workload through a closed
// loop of two clients, checking every response against the committed
// goldens. The last line of standard output is the result as JSON.
//
//	bash bench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead replays a prefix of the same stream through
// the layers' Go functions, recording spans, and reports per-layer
// metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every phase of a run shares.
type env struct {
	root   string // checkout root
	bin    string // the extrap binary under test
	runDir string // this run's scratch, removed at exit
	client *http.Client
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: extrapolate-warm, whatif-warm, sweep-cold or compose-cold")
	seed := fs.Int64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := fs.Int("seconds", 20, "least length of the measured phase, in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay; 0 reports end-to-end metrics")
	update := fs.Bool("update-golden", false, "regenerate the workload's goldens; only for an intentional change of what the server computes")
	recordPath := fs.String("record", "", "append the result, with workload, seed and host steal share, to this JSON-lines file for compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	for _, p := range []string{"go.mod", "cmd/extrap"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("run from the root of an extrap checkout: %w", err)
		}
	}
	out := filepath.Join(root, ".bench_build")
	bin, err := buildServer(root, out)
	if err != nil {
		return err
	}
	e := &env{root: root, bin: bin, runDir: filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid())), client: newClient()}
	defer os.RemoveAll(e.runDir)

	if *update {
		return updateGoldens(e, w)
	}
	chk, err := loadGoldens(goldenPath(root, w.name))
	if err != nil {
		return err
	}
	var res *result
	var steal float64
	if *traced == 1 {
		res, steal, err = traceRun(e, w, *seed, chk)
	} else {
		res, steal, err = endToEnd(e, w, *seed, *seconds, chk)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: w.name, Seed: *seed, Trace: *traced, StealShare: steal, Result: res}); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
	}
	return nil
}

// An end-to-end run sets up a server at least minSetups times, and
// more, up to maxSetups, while the set-ups so far took under
// setupBudget; setup_s is the median. The last server is measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

// minRequests keeps a warm measured phase going past its seconds until
// this many requests are done, so p99 has ten samples beyond it; cold
// streams are longer.
const minRequests = 1000

// maxPhase ends a measured phase regardless, inside the run time limit.
const maxPhase = 120 * time.Second

// rssInterval spaces the server's resident-set readings; rss_mb is their
// median over the measured phase.
const rssInterval = 100 * time.Millisecond

// setUp starts a fresh server in dir and fills its measurement cache: a
// health check and the discovery routes, then the workload's warm
// requests. It returns the server, the set-up time and the warm
// requests' outcomes.
func setUp(e *env, w *workload, dir string, chk *checker, extra ...string) (*server, time.Duration, []outcome, error) {
	t0 := time.Now()
	srv, err := startServer(e.bin, dir, extra...)
	if err != nil {
		return nil, 0, nil, err
	}
	for _, p := range []string{"/v1/healthz", "/v1/benchmarks", "/v1/machines"} {
		if _, err := srv.get(e.client, p); err != nil {
			srv.stop()
			return nil, 0, nil, err
		}
	}
	outs := sendAll(e.client, srv.base, w.warm, chk.check)
	return srv, time.Since(t0), outs, nil
}

// endToEnd runs the measured phase against a server with every flag at
// its default and reports the end-to-end metrics.
func endToEnd(e *env, w *workload, seed int64, seconds int, chk *checker) (*result, float64, error) {
	stream := w.stream(seed)
	var srv *server
	var setups []float64
	var outs []outcome
	spent := time.Duration(0)
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if srv != nil {
			srv.stop()
			e.client.CloseIdleConnections()
		}
		s, d, warm, err := setUp(e, w, filepath.Join(e.runDir, fmt.Sprintf("setup%d", i)), chk)
		if err != nil {
			return nil, 0, err
		}
		srv = s
		spent += d
		setups = append(setups, d.Seconds())
		outs = append(outs, warm...)
	}
	defer srv.stop()

	before, err := srv.snapshot(e.client)
	if err != nil {
		return nil, 0, err
	}
	// A cold stream is sent whole, so every run of it does the same work;
	// a warm one, whose rounds repeat one mix, runs for the given time.
	more := func(done int, elapsed time.Duration) bool {
		return elapsed < maxPhase && (w.cold || elapsed < time.Duration(seconds)*time.Second || done < minRequests)
	}
	stop := make(chan struct{})
	rssc := make(chan []float64, 1)
	go func() { rssc <- sampleRSS(srv.pid(), rssInterval, stop) }()
	measured, elapsed := drive(e.client, srv.base, stream, more, chk.check)
	close(stop)
	rss := <-rssc
	if len(rss) == 0 {
		return nil, 0, errors.New("no resident-set reading of the server")
	}
	after, err := srv.snapshot(e.client)
	if err != nil {
		return nil, 0, err
	}
	outs = append(outs, measured...)

	cells := 0
	lat := make([]float64, len(measured))
	for i, o := range measured {
		cells += stream[i].cells
		lat[i] = float64(o.latency.Nanoseconds()) / 1e6
	}
	if cells == 0 {
		return nil, 0, errors.New("the measured phase sent no requests")
	}
	tail := tailLevel(len(lat))
	steal := stealShare(before.steal, after.steal)
	hits := after.vars.Serve.CacheHits - before.vars.Serve.CacheHits
	misses := after.vars.Serve.CacheMisses - before.vars.Serve.CacheMisses
	fmt.Fprintf(os.Stderr, "%s seed %d: %d requests, %d cells in %.2fs; tail reported at p%g; cache %d hits, %d misses; host steal %.1f%%\n",
		w.name, seed, len(measured), cells, elapsed.Seconds(), tail, hits, misses, 100*steal)
	warnHitRatio(w, hits, misses)
	res := tally(outs)
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_p99_ms":  {quantile(lat, tail/100), "ms"},
		"cells_per_s":     {float64(cells) / elapsed.Seconds(), "1/s"},
		"cpu_ms_per_cell": {(after.cpuMs - before.cpuMs) / float64(cells), "ms"},
		"rss_mb":          {median(rss), "MB"},
	}
	return res, steal, nil
}

// tally counts outcomes into a result, printing the first few failures.
func tally(outs []outcome) *result {
	res := &result{Attempted: len(outs)}
	for _, o := range outs {
		if o.err != nil {
			if res.Failed < 5 {
				fmt.Fprintln(os.Stderr, "failed:", o.err)
			}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// updateGoldens sends every request the workload can draw to a fresh
// server and writes the response hashes as the workload's goldens.
func updateGoldens(e *env, w *workload) error {
	chk := &checker{want: map[string]string{}, record: true}
	srv, _, outs, err := setUp(e, w, filepath.Join(e.runDir, "golden"), chk)
	if err != nil {
		return err
	}
	defer srv.stop()
	outs = append(outs, sendAll(e.client, srv.base, w.universe(), chk.check)...)
	if res := tally(outs); !res.Correct {
		return fmt.Errorf("%d of %d requests failed; goldens not written", res.Failed, res.Attempted)
	}
	path := goldenPath(e.root, w.name)
	if err := chk.write(path, w.name); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d goldens to %s\n", len(chk.want), path)
	return nil
}

// record is one line of a -record file.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	StealShare float64 `json:"steal_share"`
	Result     *result `json:"result"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
