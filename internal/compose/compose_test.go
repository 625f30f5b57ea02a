package compose

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/trace"
)

// nestedSpec is the acceptance-criteria shape: a pipeline of task_farm
// and stencil stages.
const nestedSpec = `{"size":8,"iters":2,"root":{"kind":"pipeline","message_bytes":32,"stages":[
	{"kind":"task_farm","tasks":24,"grain":4,"imbalance":0.5},
	{"kind":"stencil","width":24,"sweeps":2,"grain":2},
	{"kind":"seq","children":[{"kind":"bsp","supersteps":2},{"kind":"reduction","op":"flat"}]}]}}`

func TestFromJSONCanonicalAndName(t *testing.T) {
	w, err := FromJSON([]byte(nestedSpec))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(w.Canonical(), "wl/v1|size=8|iters=2|pipeline(") {
		t.Errorf("canonical = %q", w.Canonical())
	}
	if !strings.HasPrefix(w.Name(), "wl:") || len(w.Name()) != 3+32 {
		t.Errorf("name = %q, want wl: + 32 hex digits", w.Name())
	}
	if w.Name() != core.WorkloadName(w.Canonical()) {
		t.Error("name does not derive from the canonical encoding")
	}
	if w.Nodes() != 6 || w.Depth() != 3 {
		t.Errorf("nodes=%d depth=%d, want 6/3", w.Nodes(), w.Depth())
	}
}

func TestSpellingVariantsCanonicalizeIdentically(t *testing.T) {
	// Same spec with fields reordered, defaults spelled out, and
	// whitespace shuffled must derive the same workload.
	variant := `{
		"iters": 2, "size": 8,
		"root": {"stages": [
			{"imbalance": 0.5, "grain": 4, "tasks": 24, "kind": "task_farm"},
			{"sweeps": 2, "kind": "stencil", "grain": 2, "width": 24},
			{"children": [{"supersteps": 2, "kind": "bsp"}, {"op": "flat", "kind": "reduction"}], "kind": "seq"}
		], "message_bytes": 32, "kind": "pipeline"}}`
	a, err := FromJSON([]byte(nestedSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromJSON([]byte(variant))
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical mismatch:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	if a.Name() != b.Name() {
		t.Errorf("name mismatch: %s vs %s", a.Name(), b.Name())
	}
	if a != b {
		t.Error("equal canonical keys did not memoize to one Workload")
	}
}

func TestSpecJSONRoundTrips(t *testing.T) {
	w, err := FromJSON([]byte(nestedSpec))
	if err != nil {
		t.Fatal(err)
	}
	again, err := FromJSON(w.SpecJSON())
	if err != nil {
		t.Fatalf("re-parsing SpecJSON: %v", err)
	}
	if again.Canonical() != w.Canonical() || again.Name() != w.Name() {
		t.Error("SpecJSON round trip changed the canonical identity")
	}
}

func TestValidationRejections(t *testing.T) {
	nested := `{"kind":"reduction"}`
	for i := 0; i < 10; i++ {
		nested = `{"kind":"seq","children":[` + nested + `]}`
	}
	cases := []struct{ name, spec string }{
		{"empty", ``},
		{"not json", `{{{`},
		{"unknown field", `{"root":{"kind":"bsp"},"bogus":1}`},
		{"no root", `{"size":4}`},
		{"unknown kind", `{"root":{"kind":"fractal"}}`},
		{"too deep", `{"root":` + nested + `}`},
		{"leaf with children", `{"root":{"kind":"bsp","children":[{"kind":"bsp"}]}}`},
		{"pipeline no stages", `{"root":{"kind":"pipeline"}}`},
		{"pipeline via children", `{"root":{"kind":"pipeline","children":[{"kind":"bsp"}]}}`},
		{"cross-kind tasks", `{"root":{"kind":"stencil","tasks":4}}`},
		{"cross-kind op", `{"root":{"kind":"bsp","op":"tree"}}`},
		{"bad op", `{"root":{"kind":"reduction","op":"sideways"}}`},
		{"grain too big", `{"root":{"kind":"bsp","grain":100000}}`},
		{"negative grain", `{"root":{"kind":"bsp","grain":-1}}`},
		{"imbalance too big", `{"root":{"kind":"bsp","imbalance":9}}`},
		{"grid too big", `{"root":{"kind":"stencil","width":1024,"height":1024}}`},
		{"tasks too many", `{"root":{"kind":"task_farm","tasks":99999}}`},
		{"size too big", `{"size":1000000,"root":{"kind":"bsp"}}`},
		{"trailing data", `{"root":{"kind":"bsp"}} {"root":{"kind":"bsp"}}`},
	}
	for _, c := range cases {
		if _, err := FromJSON([]byte(c.spec)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := FromJSON(make([]byte, MaxSpecBytes+1)); err == nil {
		t.Error("oversized spec accepted")
	}
}

func TestNodeBudgetRejected(t *testing.T) {
	// 1 root + 16 children + 16×4 grandchildren = 81 nodes > 64.
	leaf := `{"kind":"bsp"}`
	quad := `{"kind":"par","children":[` + strings.Repeat(leaf+",", 3) + leaf + `]}`
	spec := `{"root":{"kind":"seq","children":[` + strings.Repeat(quad+",", 15) + quad + `]}}`
	if _, err := FromJSON([]byte(spec)); err == nil {
		t.Fatal("81-node spec accepted")
	} else if !strings.Contains(err.Error(), "node ceiling") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// measure runs one measurement of a workload and returns the trace.
func measure(t *testing.T, b benchmarks.Benchmark, sz benchmarks.Size, threads int) *trace.Trace {
	t.Helper()
	tr, err := core.Measure(b.Factory(sz)(threads), core.MeasureOptions{})
	if err != nil {
		t.Fatalf("measuring %s: %v", b.Name(), err)
	}
	return tr
}

func TestLoweredProgramsMeasureDeterministically(t *testing.T) {
	w, err := FromJSON([]byte(nestedSpec))
	if err != nil {
		t.Fatal(err)
	}
	sz := w.DefaultSize()
	for _, threads := range []int{1, 2, 4, 8} {
		a := measure(t, w, sz, threads)
		b := measure(t, w, sz, threads)
		var ab, bb bytes.Buffer
		if err := trace.WriteBinary2(&ab, a); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinary2(&bb, b); err != nil {
			t.Fatal(err)
		}
		if ab.String() != bb.String() {
			t.Fatalf("%d threads: repeated measurement differs", threads)
		}
		if len(a.Events) == 0 {
			t.Fatalf("%d threads: empty trace", threads)
		}
	}
}

func TestPatternFamiliesProduceCommunication(t *testing.T) {
	families := map[string]string{
		"pipeline":  `{"root":{"kind":"pipeline","stages":[{"kind":"bsp"},{"kind":"bsp"}]}}`,
		"task_farm": `{"root":{"kind":"task_farm","tasks":16}}`,
		"stencil1d": `{"root":{"kind":"stencil","width":32,"sweeps":2}}`,
		"stencil2d": `{"root":{"kind":"stencil","width":8,"height":8,"sweeps":2}}`,
		"tree":      `{"root":{"kind":"reduction"}}`,
		"flat":      `{"root":{"kind":"reduction","op":"flat"}}`,
		"bsp":       `{"root":{"kind":"bsp","supersteps":3}}`,
	}
	for fam, spec := range families {
		w, err := FromJSON([]byte(spec))
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		tr := measure(t, w, w.DefaultSize(), 4)
		var remote int
		for _, e := range tr.Events {
			if e.IsRemote() {
				remote++
			}
		}
		if remote == 0 {
			t.Errorf("%s: lowered program has no remote communication", fam)
		}
	}
}

func TestWorkUnitsScaling(t *testing.T) {
	w, err := FromJSON([]byte(`{"root":{"kind":"reduction","op":"flat"}}`))
	if err != nil {
		t.Fatal(err)
	}
	sz := benchmarks.Size{N: 16, Iters: 1}
	if a, b := w.WorkUnits(sz, 4), w.WorkUnits(sz, 64); b <= a {
		t.Errorf("flat reduction work not increasing in threads: %d vs %d", a, b)
	}
	if a, b := w.WorkUnits(benchmarks.Size{Iters: 1}, 8), w.WorkUnits(benchmarks.Size{Iters: 10}, 8); b != 10*a {
		t.Errorf("work not linear in iters: %d vs %d", a, b)
	}
	var we benchmarks.WorkEstimator = w
	if we.WorkUnits(sz, 1) <= 0 {
		t.Error("non-positive work estimate")
	}
}

func TestPresetsRegisteredAndRunnable(t *testing.T) {
	for _, name := range []string{"bsp-reduce", "farm-stencil", "pipeline8"} {
		b, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatalf("preset %s not registered: %v", name, err)
		}
		if _, ok := b.(benchmarks.WorkEstimator); !ok {
			t.Errorf("preset %s does not implement WorkEstimator", name)
		}
		tr := measure(t, b, b.DefaultSize(), 4)
		if len(tr.Events) == 0 {
			t.Errorf("preset %s: empty trace", name)
		}
	}
	ps := Presets()
	if len(ps) != 3 {
		t.Fatalf("Presets() = %d entries", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Name() >= ps[i].Name() {
			t.Error("Presets() not sorted by name")
		}
	}
}

func TestPatternsSortedAndComplete(t *testing.T) {
	pats := Patterns()
	if len(pats) != 7 {
		t.Fatalf("Patterns() = %d kinds, want 7", len(pats))
	}
	for i := 1; i < len(pats); i++ {
		if pats[i-1].Kind >= pats[i].Kind {
			t.Errorf("Patterns() not sorted: %s before %s", pats[i-1].Kind, pats[i].Kind)
		}
	}
	a, _ := json.Marshal(pats)
	b, _ := json.Marshal(Patterns())
	if string(a) != string(b) {
		t.Error("Patterns() not byte-stable")
	}
}

func TestCountersAdvance(t *testing.T) {
	before := ReadCounters()
	if _, err := FromJSON([]byte(`{"root":{"kind":"bsp","supersteps":4,"grain":3}}`)); err != nil {
		t.Fatal(err)
	}
	after := ReadCounters()
	if after.SpecsParsed <= before.SpecsParsed {
		t.Error("SpecsParsed did not advance")
	}
	if after.CacheHits+after.CacheMisses <= before.CacheHits+before.CacheMisses {
		t.Error("cache counters did not advance")
	}
}
