package store

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/sim/network"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// goldenKeys is the representative sample of content addresses locked
// by testdata/keys.golden. Every input field that participates in the
// canonical encoding appears non-zero in at least one sample, so a
// refactor that drops, reorders, or reformats a field cannot pass.
func goldenKeys() []struct {
	name      string
	canonical string
} {
	zeroKey := core.CacheKey{}
	basicKey := core.CacheKey{Bench: "embar", N: 1 << 12, Iters: 10, Threads: 16}
	fullKey := core.CacheKey{
		Bench:   "matmul/block-cyclic",
		N:       192,
		Iters:   3,
		Verify:  true,
		Threads: 64,
		Opts: core.MeasureOptions{
			Cost: pcxx.CostModel{
				FlopTime:    300 * vtime.Nanosecond,
				IntOpTime:   100 * vtime.Nanosecond,
				MemByteTime: 15 * vtime.Nanosecond,
				CallTime:    1 * vtime.Microsecond,
			},
			EventOverhead: 2 * vtime.Microsecond,
			SizeMode:      pcxx.SizeMode(1),
			Seed:          0xDEADBEEF,
		},
	}
	defCfg := sim.Config{
		MipsRatio: 1.0,
		Policy: sim.Policy{
			Kind:              sim.Interrupt,
			InterruptOverhead: 10 * vtime.Microsecond,
			ServiceTime:       15 * vtime.Microsecond,
		},
		Comm: network.Config{
			StartupTime:      50 * vtime.Microsecond,
			ByteTransferTime: 50 * vtime.Nanosecond,
			MsgConstructTime: 10 * vtime.Microsecond,
			HopTime:          500 * vtime.Nanosecond,
			RecvOverhead:     10 * vtime.Microsecond,
			RecvOccupancy:    2 * vtime.Microsecond,
			Topology:         network.Mesh2D{},
			ContentionFactor: 0.05,
			RequestBytes:     16,
		},
		Barrier: sim.DefaultBarrier(),
	}
	fullCfg := sim.Config{
		Procs:     32,
		MipsRatio: 0.41,
		Policy: sim.Policy{
			Kind:              sim.Poll,
			PollInterval:      100 * vtime.Microsecond,
			PollOverhead:      5 * vtime.Microsecond,
			InterruptOverhead: 10 * vtime.Microsecond,
			ServiceTime:       15 * vtime.Microsecond,
		},
		Comm: network.Config{
			StartupTime:      86 * vtime.Microsecond,
			ByteTransferTime: 120 * vtime.Nanosecond,
			MsgConstructTime: 10 * vtime.Microsecond,
			HopTime:          500 * vtime.Nanosecond,
			RecvOverhead:     10 * vtime.Microsecond,
			RecvOccupancy:    2 * vtime.Microsecond,
			Topology:         network.Mesh2D{},
			ContentionFactor: 0.05,
			RequestBytes:     16,
		},
		Barrier:           sim.DefaultBarrier(),
		Placement:         sim.CyclicPlacement,
		ContextSwitchTime: 25 * vtime.Microsecond,
		ClusterSize:       4,
		IntraComm: network.Config{
			StartupTime:      2 * vtime.Microsecond,
			ByteTransferTime: 10 * vtime.Nanosecond,
		},
		EmitTrace: true,
	}
	// Composed workloads: the wl/v1 canonical encoding, and a trace key
	// whose Bench field is the derived workload name — locking both the
	// spec encoding and the name derivation (core.WorkloadName) that
	// every composed trace/prediction address builds on.
	wlBasic := mustWorkload(`{"root":{"kind":"bsp"}}`)
	wlNested := mustWorkload(`{"size":8,"iters":2,"root":{"kind":"seq","children":[
		{"kind":"pipeline","message_bytes":64,"imbalance":0.25,"stages":[
			{"kind":"task_farm","tasks":24,"grain":4,"imbalance":0.5},
			{"kind":"stencil","width":16,"height":4,"sweeps":2,"grain":2,"message_bytes":128}]},
		{"kind":"par","children":[
			{"kind":"reduction","op":"flat","grain":3},
			{"kind":"bsp","supersteps":2,"grain":5,"message_bytes":256}]},
		{"kind":"stencil","width":32,"sweeps":1}]}}`)
	wlTraceKey := core.CacheKey{Bench: wlNested.Name(), N: 8, Iters: 2, Threads: 16}
	return []struct {
		name      string
		canonical string
	}{
		{"trace-zero", zeroKey.Canonical()},
		{"trace-basic", basicKey.Canonical()},
		{"trace-full", fullKey.Canonical()},
		{"trace-v2-basic", basicKey.CanonicalFormat(trace.FormatXTRP2)},
		{"trace-v2-full", fullKey.CanonicalFormat(trace.FormatXTRP2)},
		{"cfg-zero", core.CanonicalConfig(sim.Config{})},
		{"cfg-default", core.CanonicalConfig(defCfg)},
		{"cfg-full", core.CanonicalConfig(fullCfg)},
		{"pred-basic-default", core.CanonicalPrediction(basicKey, defCfg)},
		{"pred-full-full", core.CanonicalPrediction(fullKey, fullCfg)},
		{"wl-basic", wlBasic.Canonical()},
		{"wl-nested", wlNested.Canonical()},
		{"wl-trace-nested", wlTraceKey.Canonical()},
		{"wl-pred-nested", core.CanonicalPrediction(wlTraceKey, defCfg)},
	}
}

// mustWorkload parses a golden workload spec; fixture specs are
// constants, so a parse failure is a bug in the test itself.
func mustWorkload(spec string) *compose.Workload {
	w, err := compose.FromJSON([]byte(spec))
	if err != nil {
		panic(err)
	}
	return w
}

const goldenPath = "testdata/keys.golden"

// TestGoldenCacheKeys locks the content-address format. A failure here
// means the canonical encoding changed — which orphans every artifact
// in every existing store directory. If the change is deliberate, bump
// the version component in internal/core/canonical.go AND regenerate
// the fixture with STORE_GOLDEN_UPDATE=1; never regenerate to silence
// an accidental drift.
func TestGoldenCacheKeys(t *testing.T) {
	keys := goldenKeys()
	if os.Getenv("STORE_GOLDEN_UPDATE") != "" {
		var b strings.Builder
		for _, k := range keys {
			h := KeyHash(k.canonical)
			fmt.Fprintf(&b, "%s\t%s\t%s\n", k.name, hex.EncodeToString(h[:]), k.canonical)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("golden fixture regenerated")
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with STORE_GOLDEN_UPDATE=1): %v", err)
	}
	defer f.Close()
	want := map[string][2]string{} // name → {hash, canonical}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			t.Fatalf("malformed golden line: %q", sc.Text())
		}
		want[parts[0]] = [2]string{parts[1], parts[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(keys) {
		t.Fatalf("fixture has %d entries, test generates %d", len(want), len(keys))
	}
	for _, k := range keys {
		exp, ok := want[k.name]
		if !ok {
			t.Errorf("%s: not in fixture", k.name)
			continue
		}
		if k.canonical != exp[1] {
			t.Errorf("%s: canonical string drifted\n got: %s\nwant: %s", k.name, k.canonical, exp[1])
		}
		h := KeyHash(k.canonical)
		if got := hex.EncodeToString(h[:]); got != exp[0] {
			t.Errorf("%s: content address drifted: got %s, want %s", k.name, got, exp[0])
		}
	}
}
