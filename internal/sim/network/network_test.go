package network

import (
	"testing"
	"testing/quick"

	"extrap/internal/vtime"
)

func TestTopologyHopsSymmetricAndZeroSelf(t *testing.T) {
	topos := []Topology{Bus{}, Ring{}, Mesh2D{}, Hypercube{}, FatTree{}, Dragonfly{}}
	for _, topo := range topos {
		for _, procs := range []int{1, 2, 4, 8, 16, 32} {
			for s := 0; s < procs; s++ {
				if h := topo.Hops(s, s, procs); h != 0 {
					t.Errorf("%s: Hops(%d,%d,%d) = %d, want 0", topo.Name(), s, s, procs, h)
				}
				for d := 0; d < procs; d++ {
					a, b := topo.Hops(s, d, procs), topo.Hops(d, s, procs)
					if a != b {
						t.Errorf("%s: asymmetric hops %d↔%d: %d vs %d", topo.Name(), s, d, a, b)
					}
					if d != s && a < 1 {
						t.Errorf("%s: Hops(%d,%d,%d) = %d, want ≥1", topo.Name(), s, d, procs, a)
					}
				}
			}
			if topo.Links(procs) < 1 {
				t.Errorf("%s: Links(%d) < 1", topo.Name(), procs)
			}
		}
	}
}

func TestRingDistance(t *testing.T) {
	r := Ring{}
	if h := r.Hops(0, 7, 8); h != 1 {
		t.Errorf("ring 0→7 of 8 = %d, want 1 (wrap)", h)
	}
	if h := r.Hops(0, 4, 8); h != 4 {
		t.Errorf("ring 0→4 of 8 = %d, want 4", h)
	}
}

func TestHypercubeDistance(t *testing.T) {
	h := Hypercube{}
	if d := h.Hops(0, 7, 8); d != 3 {
		t.Errorf("hypercube 0→7 = %d, want 3", d)
	}
	if d := h.Hops(5, 6, 8); d != 2 {
		t.Errorf("hypercube 5→6 = %d, want 2", d)
	}
}

func TestFatTreeDistance(t *testing.T) {
	f := FatTree{}
	// Same quad of a 4-ary tree: one level up and down.
	if d := f.Hops(0, 3, 16); d != 2 {
		t.Errorf("fattree 0→3 = %d, want 2", d)
	}
	// Different quads: two levels.
	if d := f.Hops(0, 5, 16); d != 4 {
		t.Errorf("fattree 0→5 = %d, want 4", d)
	}
}

func TestDragonflyDistance(t *testing.T) {
	d := Dragonfly{} // 4 routers/group × 2 procs/router → groups of 8
	if h := d.Hops(0, 1, 32); h != 1 {
		t.Errorf("dragonfly 0→1 = %d, want 1 (same router)", h)
	}
	if h := d.Hops(0, 2, 32); h != 2 {
		t.Errorf("dragonfly 0→2 = %d, want 2 (same group)", h)
	}
	if h := d.Hops(0, 8, 32); h != 4 {
		t.Errorf("dragonfly 0→8 = %d, want 4 (cross group)", h)
	}
	// Custom shape: 2 routers/group × 1 proc/router → groups of 2.
	c := Dragonfly{RoutersPerGroup: 2, ProcsPerRouter: 1}
	if h := c.Hops(0, 1, 8); h != 2 {
		t.Errorf("dragonfly2x1 0→1 = %d, want 2", h)
	}
	if h := c.Hops(0, 2, 8); h != 4 {
		t.Errorf("dragonfly2x1 0→2 = %d, want 4", h)
	}
	// Links: 8 procs → 4 routers → 1 group: 8 terminal + 6 local + 0 global.
	if l := (Dragonfly{}).Links(8); l != 14 {
		t.Errorf("dragonfly Links(8) = %d, want 14", l)
	}
	// 16 procs → 8 routers → 2 groups: 16 + 2·6 + 1 = 29.
	if l := (Dragonfly{}).Links(16); l != 29 {
		t.Errorf("dragonfly Links(16) = %d, want 29", l)
	}
}

func TestMesh2DManhattan(t *testing.T) {
	m := Mesh2D{}
	// 16 procs → 4×4 mesh; 0=(0,0), 15=(3,3).
	if d := m.Hops(0, 15, 16); d != 6 {
		t.Errorf("mesh 0→15 of 16 = %d, want 6", d)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"bus", "ring", "mesh2d", "hypercube", "fattree", "dragonfly"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("torus9d"); err == nil {
		t.Error("ByName accepted unknown topology")
	}
}

func testConfig() Config {
	return Config{
		StartupTime:      10 * vtime.Microsecond,
		ByteTransferTime: 100 * vtime.Nanosecond,
		MsgConstructTime: 2 * vtime.Microsecond,
		HopTime:          500 * vtime.Nanosecond,
		RecvOverhead:     5 * vtime.Microsecond,
		RecvOccupancy:    1 * vtime.Microsecond,
		Topology:         Bus{},
		RequestBytes:     16,
	}
}

func TestTransitBase(t *testing.T) {
	n, err := newNetwork(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// 100 bytes over the bus: 100·0.1µs + 1 hop · 0.5µs = 10.5µs.
	if got := n.Transit(0, 1, 100); got != vtime.FromMicros(10.5) {
		t.Errorf("Transit = %v, want 10.5µs", got)
	}
	// Self transit has no hop cost.
	if got := n.Transit(2, 2, 100); got != vtime.FromMicros(10.0) {
		t.Errorf("self Transit = %v, want 10µs", got)
	}
}

func TestSendOverhead(t *testing.T) {
	n, _ := newNetwork(testConfig(), 2)
	want := 12 * vtime.Microsecond // construct 2 + startup 10
	if got := n.SendOverhead(64); got != want {
		t.Errorf("SendOverhead = %v, want %v", got, want)
	}
}

func TestContentionInflation(t *testing.T) {
	cfg := testConfig()
	cfg.ContentionFactor = 1.0
	n, _ := newNetwork(cfg, 2)
	base := n.Transit(0, 1, 1000)
	// Put one message in flight; the next transit inflates by
	// factor·1/links = 1.0 on the single bus link.
	n.Inject(0, 0, 1, 1000)
	loaded := n.Transit(0, 1, 1000)
	if loaded <= base {
		t.Fatalf("contended transit %v not above base %v", loaded, base)
	}
	if loaded < base*19/10 || loaded > base*21/10 {
		t.Errorf("contended transit %v, want ≈2×%v", loaded, base)
	}
	if n.ContentionAdd == 0 {
		t.Error("ContentionAdd not accumulated")
	}
}

func TestContentionDisabled(t *testing.T) {
	n, _ := newNetwork(testConfig(), 2) // factor 0
	n.Inject(0, 0, 1, 1000)
	n.Inject(0, 0, 1, 1000)
	a := n.Transit(0, 1, 1000)
	if n.ContentionAdd != 0 {
		t.Error("contention accumulated with factor 0")
	}
	b := n.Transit(0, 1, 1000)
	if a != b {
		t.Error("transit varies with factor 0")
	}
}

func TestDeliverSerializesReceiveQueue(t *testing.T) {
	n, _ := newNetwork(testConfig(), 2)
	n.Inject(0, 0, 1, 10)
	n.Inject(0, 0, 1, 10)
	n.Inject(0, 0, 1, 10)
	// Three messages arrive at the same raw time; each occupies the NI
	// for 1µs, so availability staggers by the occupancy.
	t0 := n.Deliver(100*vtime.Microsecond, 1)
	t1 := n.Deliver(100*vtime.Microsecond, 1)
	t2 := n.Deliver(100*vtime.Microsecond, 1)
	if t0 != 100*vtime.Microsecond {
		t.Errorf("first delivery at %v", t0)
	}
	if t1 != 101*vtime.Microsecond || t2 != 102*vtime.Microsecond {
		t.Errorf("deliveries at %v, %v; want 101µs, 102µs", t1, t2)
	}
	if n.QueueingAdd != 3*vtime.Microsecond {
		t.Errorf("QueueingAdd = %v, want 3µs", n.QueueingAdd)
	}
	if n.InFlight() != 0 {
		t.Errorf("InFlight = %d after all delivered", n.InFlight())
	}
}

func TestDeliverWithoutInjectPanics(t *testing.T) {
	n, _ := newNetwork(testConfig(), 2)
	defer func() {
		if recover() == nil {
			t.Error("Deliver without Inject did not panic")
		}
	}()
	n.Deliver(0, 0)
}

func TestInjectAccounting(t *testing.T) {
	n, _ := newNetwork(testConfig(), 4)
	n.Inject(0, 0, 1, 100)
	n.Inject(0, 1, 2, 200)
	if n.Messages != 2 || n.Bytes != 300 {
		t.Errorf("messages=%d bytes=%d, want 2/300", n.Messages, n.Bytes)
	}
	if n.MaxInFlight != 2 {
		t.Errorf("MaxInFlight = %d, want 2", n.MaxInFlight)
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{StartupTime: -1},
		{ContentionFactor: -0.5},
		{RequestBytes: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := newNetwork(good, 0); err == nil {
		t.Error("New accepted 0 processors")
	}
}

func TestBandwidthMBps(t *testing.T) {
	c := Config{ByteTransferTime: 50 * vtime.Nanosecond}
	if got := c.BandwidthMBps(); got != 20 {
		t.Errorf("BandwidthMBps = %g, want 20", got)
	}
	c.ByteTransferTime = vtime.FromMicros(0.2)
	if got := c.BandwidthMBps(); got != 5 {
		t.Errorf("BandwidthMBps = %g, want 5", got)
	}
}

func TestTransitMonotoneInSize(t *testing.T) {
	n, _ := newNetwork(testConfig(), 8)
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return n.Transit(0, 1, x) <= n.Transit(0, 1, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopologyNames(t *testing.T) {
	names := map[string]Topology{
		"bus": Bus{}, "ring": Ring{}, "mesh2d": Mesh2D{},
		"hypercube": Hypercube{}, "fattree4": FatTree{},
		"fattree2": FatTree{Arity: 2}, "dragonfly4x2": Dragonfly{},
		"dragonfly8x4": Dragonfly{RoutersPerGroup: 8, ProcsPerRouter: 4},
	}
	for want, topo := range names {
		if topo.Name() != want {
			t.Errorf("Name() = %q, want %q", topo.Name(), want)
		}
	}
	// Custom-arity fat tree distances.
	f2 := FatTree{Arity: 2}
	if d := f2.Hops(0, 1, 8); d != 2 {
		t.Errorf("binary fattree 0→1 = %d, want 2", d)
	}
}

func TestLinksEdgeCases(t *testing.T) {
	if (Ring{}).Links(0) != 1 {
		t.Error("Ring.Links(0) should clamp to 1")
	}
	if (Hypercube{}).Links(1) != 1 {
		t.Error("Hypercube.Links(1) should clamp to 1")
	}
	if (Mesh2D{}).Links(1) != 1 {
		t.Error("Mesh2D.Links(1) should clamp to 1")
	}
	if (FatTree{}).Links(0) != 1 {
		t.Error("FatTree.Links(0) should clamp to 1")
	}
	if (Mesh2D{}).Hops(0, 0, 0) != 0 {
		t.Error("degenerate mesh self-hop")
	}
}

func TestNilTopologyDefaultsToBus(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = nil
	n, err := newNetwork(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Bus: 1 hop between distinct processors.
	want := vtime.Time(100)*cfg.ByteTransferTime + cfg.HopTime
	if got := n.Transit(0, 1, 100); got != want {
		t.Errorf("nil-topology transit = %v, want %v (bus)", got, want)
	}
	if n.Config().StartupTime != cfg.StartupTime {
		t.Error("Config() lost parameters")
	}
}

func TestBandwidthZero(t *testing.T) {
	c := Config{}
	if c.BandwidthMBps() != 0 {
		t.Error("zero ByteTransferTime should report 0 bandwidth")
	}
}

// newNetwork returns a network reset for procs processors under cfg.
func newNetwork(cfg Config, procs int) (*Network, error) {
	n := &Network{}
	return n, n.Reset(cfg, procs)
}
