// Command compare sets two series of benchmark runs side by side: A, the
// parent, and B, the change. Each file holds the lines the harness
// appends with -record; runs pair up in order within each workload, so
// record them alternating A and B. For every workload and metric it
// prints each side's median and quartiles, the share of pairs B wins, and
// a verdict: improved, within bound, worse or unresolved.
//
//	bash bench/run.sh compare A.jsonl B.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// maxSteal is the host steal share above which a pair is flagged.
const maxSteal = 0.05

// minPairs is the fewest pairs a claim may rest on.
const minPairs = 10

type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	StealShare float64 `json:"steal_share"`
	Result     struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// metricSpec is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		os.Exit(2)
	}
	if err := run(*specPath, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func run(specPath, aPath, bPath string) error {
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB wins\tverdict")
	for _, key := range sortedKeys(a) {
		as, bs := a[key], b[key]
		n := min(len(as), len(bs))
		if n == 0 {
			continue
		}
		metrics := spec.EndToEnd
		if as[0].Trace == 1 {
			metrics = spec.PerLayer
		}
		if n < minPairs {
			fmt.Fprintf(os.Stderr, "%s: %d pairs, fewer than the %d a claim needs\n", key, n, minPairs)
		}
		for i := 0; i < n; i++ {
			if !as[i].Result.Correct || !bs[i].Result.Correct {
				fmt.Fprintf(os.Stderr, "%s pair %d: a run failed its output check\n", key, i+1)
			}
			if s := max(as[i].StealShare, bs[i].StealShare); s > maxSteal {
				fmt.Fprintf(os.Stderr, "%s pair %d: host steal %.1f%% exceeds %.0f%%\n", key, i+1, 100*s, 100*maxSteal)
			}
		}
		for _, m := range metrics {
			av, bv := values(as[:n], m.Name), values(bs[:n], m.Name)
			if len(av) != n || len(bv) != n {
				continue
			}
			aq, bq := quartiles(av), quartiles(bv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.0f%%\t%s\n",
				key, m.Name, aq[1], aq[0], aq[2], bq[1], bq[0], bq[2], 100*winShare(av, bv, m.Better), verdict(av, bv, m))
		}
	}
	return tw.Flush()
}

// readRecords groups a -record file's runs by workload, traced runs
// apart, in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		key := r.Workload
		if r.Trace == 1 {
			key += " (traced)"
		}
		out[key] = append(out[key], r)
	}
	return out, sc.Err()
}

func sortedKeys(m map[string][]record) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (its default,
// exclusive method), so the numbers match a reviewer's script.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// better reports whether x is better than y in the metric's direction.
func better(x, y float64, dir string) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

// winShare is the share of pairs in which B is better; ties count for
// neither side.
func winShare(a, b []float64, dir string) float64 {
	wins := 0
	for i := range a {
		if better(b[i], a[i], dir) {
			wins++
		}
	}
	return float64(wins) / float64(len(a))
}

// verdict applies the pair rule: B improved when it wins at least nine
// tenths of the pairs and the medians differ by more than A's quartile
// spread; it is worse when its median is worse than A's by more than the
// bound; a metric whose spread between A's own runs exceeds the bound is
// unresolved, unless every B run beats every A run. Metrics without a
// bound get only the improvement test.
func verdict(a, b []float64, m metricSpec) string {
	aq, bq := quartiles(a), quartiles(b)
	spread := aq[2] - aq[0]
	if winShare(a, b, m.Better) >= 0.9 && better(bq[1], aq[1], m.Better) && math.Abs(bq[1]-aq[1]) > spread {
		return "improved"
	}
	if m.Bound == nil {
		return "no change shown"
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y, m.Better)
		}
	}
	if spread > *m.Bound*math.Abs(aq[1]) && !allBetter {
		return "unresolved"
	}
	worse := bq[1] - aq[1]
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > *m.Bound*math.Abs(aq[1]) {
		return "worse"
	}
	return "within bound"
}
