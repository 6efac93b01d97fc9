package simnet

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

// shardedPair builds a two-partition network, one node per partition,
// joined by a fixed-delay link at exactly the lookahead.
func shardedPair(t *testing.T, la time.Duration) (*Network, *Node, *Node) {
	t.Helper()
	w := NewSharded(1, 2, la, func(name string) int {
		if name == "b" {
			return 1
		}
		return 0
	})
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	cfg := LinkConfig{Delay: FixedDelay(la)}
	w.Connect(a, b, cfg, cfg)
	return w, a, b
}

func TestShardedDeliveryAcrossPartitions(t *testing.T) {
	const la = 10 * time.Millisecond
	w, a, b := shardedPair(t, la)
	if !w.Sharded() || w.Coord() == nil || w.Coord().NumParts() != 2 {
		t.Fatal("network not sharded over 2 partitions")
	}
	if a.Part() != 0 || b.Part() != 1 {
		t.Fatalf("partition assignment: a=%d b=%d", a.Part(), b.Part())
	}
	if a.Pool() == b.Pool() {
		t.Fatal("partitions must not share a buffer pool")
	}
	if w.BufPool() != a.Pool() {
		t.Fatal("BufPool must return partition 0's pool")
	}
	if a.Eng() == b.Eng() || a.Eng() != w.Eng {
		t.Fatal("per-partition engines wired wrong")
	}
	if a.Network() != w || a.Clock() == nil {
		t.Fatal("node accessors broken")
	}

	dst := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dst)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	if _, _, ok := a.LookupRoute(dst); !ok {
		t.Fatal("route not installed")
	}

	var gotAt sim.Time
	deliveries := 0
	b.SetHandler(func(data []byte) {
		gotAt = b.Eng().Now()
		deliveries++
	})

	// Parallel epochs: the delivery must ride the outbox (sendCross →
	// barrier drain → PrepareCross into b's pool) and still land at
	// exactly the propagation delay.
	w.Coord().EnterParallel()
	a.Eng().ScheduleAt(sim.Time(time.Millisecond), func() {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	})
	w.Run(sim.Time(50 * time.Millisecond))
	if deliveries != 1 {
		t.Fatalf("cross-partition packet not delivered (got %d)", deliveries)
	}
	if gotAt != sim.Time(time.Millisecond+la) {
		t.Fatalf("delivered at %v, want 11ms", gotAt)
	}
	if w.Now() != sim.Time(50*time.Millisecond) {
		t.Fatalf("Now()=%v, want 50ms", w.Now())
	}
	// The staged carrier was recycled and both pools balance: nothing
	// leaks across the partition boundary.
	if w.LeasedBufs() != 0 {
		t.Fatalf("leaked %d buffers across the boundary", w.LeasedBufs())
	}

	// A second round reuses the recycled carrier (crossStage.get hits the
	// freelist) and must behave identically.
	a.Eng().ScheduleAt(sim.Time(60*time.Millisecond), func() {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	})
	w.Run(sim.Time(100 * time.Millisecond))
	if deliveries != 2 || w.LeasedBufs() != 0 {
		t.Fatalf("second round: %d deliveries, %d leaked", deliveries, w.LeasedBufs())
	}

	// RemoveAddr drops local delivery once claims balance.
	b.AddAddr(dst)
	b.RemoveAddr(dst)
	if !b.OwnsAddr(dst) {
		t.Fatal("refcounted address released too early")
	}
	b.RemoveAddr(dst)
	if b.OwnsAddr(dst) {
		t.Fatal("address still owned after claims balanced")
	}
	b.RemoveAddr(dst) // never-added / over-removed: no-op
}

func TestShardedCrossLinkValidation(t *testing.T) {
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("no panic, want %q", want)
			}
		}()
		fn()
	}

	build := func() (*Network, *Node, *Node) {
		w := NewSharded(1, 2, 5*time.Millisecond, func(name string) int {
			if name == "b" {
				return 1
			}
			return 0
		})
		return w, w.AddNode("a", 0), w.AddNode("b", 0)
	}

	// Cross-partition links must not model bandwidth: queue state would
	// straddle the barrier.
	w, a, b := build()
	mustPanic("must not model bandwidth", func() {
		w.Connect(a, b,
			LinkConfig{Delay: FixedDelay(5 * time.Millisecond), BandwidthBps: 1e6},
			LinkConfig{Delay: FixedDelay(5 * time.Millisecond)})
	})

	// The delay model must declare a floor...
	w, a, b = build()
	mustPanic("needs a delay model with a known minimum", func() {
		w.Connect(a, b,
			LinkConfig{Delay: noFloor{}},
			LinkConfig{Delay: FixedDelay(5 * time.Millisecond)})
	})

	// ...and the floor must clear the lookahead.
	w, a, b = build()
	mustPanic("below lookahead", func() {
		w.Connect(a, b,
			LinkConfig{Delay: FixedDelay(time.Millisecond)},
			LinkConfig{Delay: FixedDelay(5 * time.Millisecond)})
	})

	// Same-partition links stay unconstrained: bandwidth and floorless
	// models are fine inside one engine.
	w = NewSharded(1, 2, 5*time.Millisecond, func(string) int { return 0 })
	a, b = w.AddNode("a", 0), w.AddNode("b", 0)
	lk := w.Connect(a, b, LinkConfig{Delay: noFloor{}, BandwidthBps: 1e6}, LinkConfig{})
	if lk.Name() != "a<->b" || lk.PortB().Node() != b {
		t.Fatalf("link accessors: name=%q", lk.Name())
	}
	ln := lk.LineAB()
	if ln.Eng() != a.Eng() || ln.Shaper() == nil || ln.Loss() != 0 {
		t.Fatal("line accessors broken")
	}

	mustPanic("at least one partition", func() { NewSharded(1, 0, 0, nil) })
}

// noFloor is a delay model without a declared minimum.
type noFloor struct{}

func (noFloor) Sample(sim.Time, *sim.RNG) time.Duration { return 2 * time.Millisecond }

func TestDelayModelFloors(t *testing.T) {
	if FixedDelay(3*time.Millisecond).MinDelay() != 3*time.Millisecond {
		t.Fatal("FixedDelay floor")
	}
	g := GaussianDelay{Floor: 2 * time.Millisecond, Mean: 3 * time.Millisecond, Std: time.Millisecond}
	if g.MinDelay() != 2*time.Millisecond {
		t.Fatal("GaussianDelay floor")
	}
	sp := SpikeDelay{Base: g, Prob: 0.1, Mean: time.Millisecond}
	if sp.MinDelay() != 2*time.Millisecond {
		t.Fatal("SpikeDelay must inherit its base floor")
	}
	if (SpikeDelay{Base: noFloor{}}).MinDelay() != 0 {
		t.Fatal("SpikeDelay over a floorless base must report 0")
	}
}
