package netsim

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

func TestLatencyModelsSymmetricAndDeterministic(t *testing.T) {
	models := []LatencyModel{
		NewUniform(),
		NewEuclidean(42),
		NewTransitStub(42, 8),
	}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			for a := id.ID(1); a <= 40; a++ {
				for b := a + 1; b <= 40; b++ {
					c1 := m.Cost(a, b)
					if c2 := m.Cost(b, a); c1 != c2 {
						t.Fatalf("cost asymmetric: %v->%v=%d, %v->%v=%d", a, b, c1, b, a, c2)
					}
					if c1 != m.Cost(a, b) {
						t.Fatalf("cost of %v-%v not deterministic", a, b)
					}
					// Without jitter, Delay must equal Cost.
					if d := m.Delay(a, b, rng.New(1)); d != c1 {
						t.Fatalf("delay %d != cost %d for %v-%v", d, c1, a, b)
					}
				}
			}
			if m.Cost(7, 7) != 0 {
				t.Error("self cost not zero")
			}
			if m.Delay(7, 7, rng.New(1)) != 1 {
				t.Error("self delay not the minimal tick")
			}
		})
	}
}

func TestEuclideanCostSpread(t *testing.T) {
	m := NewEuclidean(7)
	var min, max uint64 = 1 << 62, 0
	for a := id.ID(1); a <= 100; a++ {
		for b := a + 1; b <= 100; b++ {
			c := m.Cost(a, b)
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
	}
	// Coordinates on the unit square with Scale 1000 must produce a wide
	// spread: that spread is what a topology optimizer exploits.
	if max < 4*min {
		t.Errorf("cost spread too narrow: min=%d max=%d", min, max)
	}
	if min < m.Min {
		t.Errorf("cost %d below the model floor %d", min, m.Min)
	}
}

func TestTransitStubBimodal(t *testing.T) {
	m := NewTransitStub(3, 5)
	var local, remote int
	for a := id.ID(1); a <= 60; a++ {
		for b := a + 1; b <= 60; b++ {
			if m.cluster(a) == m.cluster(b) {
				local++
				if got := m.Cost(a, b); got != 2*m.Stub {
					t.Fatalf("intra-cluster cost = %d, want %d", got, 2*m.Stub)
				}
			} else {
				remote++
				if got := m.Cost(a, b); got < 2*m.Stub+m.Backbone {
					t.Fatalf("inter-cluster cost = %d, below backbone floor", got)
				}
			}
		}
	}
	if local == 0 || remote == 0 {
		t.Fatalf("degenerate clustering: local=%d remote=%d", local, remote)
	}
}

func TestUniformJitterBounded(t *testing.T) {
	m := &Uniform{Base: 100, Jitter: 20}
	r := rng.New(9)
	for i := 0; i < 1000; i++ {
		d := m.Delay(1, 2, r)
		if d < 100 || d > 120 {
			t.Fatalf("jittered delay %d outside [100,120]", d)
		}
	}
	if m.Cost(1, 2) != 100 {
		t.Error("cost must strip jitter")
	}
}

func TestParseLatencyModel(t *testing.T) {
	for name, want := range map[string]string{
		"uniform":      "uniform",
		"euclidean":    "euclidean",
		"transit":      "transit-stub",
		"transit-stub": "transit-stub",
	} {
		m, err := ParseLatencyModel(name, 1)
		if err != nil || m == nil {
			t.Fatalf("ParseLatencyModel(%q): %v, %v", name, m, err)
		}
		if m.Name() != want {
			t.Errorf("ParseLatencyModel(%q).Name() = %q, want %q", name, m.Name(), want)
		}
	}
	for _, name := range []string{"", "none", "fifo"} {
		if m, err := ParseLatencyModel(name, 1); err != nil || m != nil {
			t.Errorf("ParseLatencyModel(%q) = %v, %v; want nil, nil", name, m, err)
		}
	}
	if _, err := ParseLatencyModel("bongo", 1); err == nil {
		t.Error("unknown model name accepted")
	}
}

// echoProc delivers nothing; it records the virtual time of each delivery.
type echoProc struct {
	sim   *Sim
	times []uint64
}

func (p *echoProc) Deliver(from id.ID, m *msg.Message) { p.times = append(p.times, p.sim.Now()) }
func (p *echoProc) OnCycle()                           {}

// TestSimWithLatencyModelOrdersByDistance wires a Euclidean model into a Sim
// and checks that deliveries happen in cost order and advance the clock.
func TestSimWithLatencyModelOrdersByDistance(t *testing.T) {
	s := New(1)
	model := NewEuclidean(1)
	s.Latency = model.Delay
	procs := make(map[id.ID]*echoProc)
	for _, n := range []id.ID{1, 2, 3, 4} {
		n := n
		s.Add(n, func(env peer.Env) peer.Process {
			p := &echoProc{sim: s}
			procs[n] = p
			return p
		})
	}
	for _, dst := range []id.ID{2, 3, 4} {
		if err := s.Inject(1, dst, msg.Message{Type: msg.Gossip, Sender: 1, Round: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	for _, dst := range []id.ID{2, 3, 4} {
		p := procs[dst]
		if len(p.times) != 1 {
			t.Fatalf("node %v deliveries = %d", dst, len(p.times))
		}
		if want := model.Cost(1, dst); p.times[0] != want {
			t.Errorf("node %v delivered at t=%d, want cost %d", dst, p.times[0], want)
		}
	}
	if s.Now() == 0 {
		t.Error("virtual clock did not advance")
	}
}
