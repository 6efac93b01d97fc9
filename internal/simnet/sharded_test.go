package simnet

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/packet"
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
	cfg := FixedDelay(la)
	w.Connect(a, b, cfg, cfg)
	return w, a, b
}

func TestShardedDeliveryAcrossPartitions(t *testing.T) {
	const la = 10 * time.Millisecond
	w, a, b := shardedPair(t, la)
	if w.Coord().NumParts() != 2 {
		t.Fatal("network not sharded over 2 partitions")
	}
	if a.Part() != 0 || b.Part() != 1 {
		t.Fatalf("partition assignment: a=%d b=%d", a.Part(), b.Part())
	}
	if a.Pool() == b.Pool() {
		t.Fatal("partitions must not share a buffer pool")
	}
	if a.Eng() == b.Eng() || a.Eng() != w.Eng {
		t.Fatal("per-partition engines wired wrong")
	}
	if a.net != w || a.Clock() == nil {
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
	// barrier drain → PrepareCross moves it into b's pool) and still land at
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
	// The staged buffer went back to a's pool and both pools balance:
	// nothing leaks across the partition boundary.
	if w.LeasedBufs() != 0 {
		t.Fatalf("leaked %d buffers across the boundary", w.LeasedBufs())
	}

	// A second round reuses both pools' recycled buffers and must behave
	// identically.
	a.Eng().ScheduleAt(sim.Time(60*time.Millisecond), func() {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	})
	w.Run(sim.Time(100 * time.Millisecond))
	if deliveries != 2 || w.LeasedBufs() != 0 {
		t.Fatalf("second round: %d deliveries, %d leaked", deliveries, w.LeasedBufs())
	}
}

// A cross packet staged for the barrier keeps its source-pool lease, so
// the pools' outstanding leases equal the packets in flight at every
// event boundary, mid-epoch included — not only after a drain.
func TestShardedStagedPacketKeepsLease(t *testing.T) {
	const la = 10 * time.Millisecond
	w, a, b := shardedPair(t, la)
	b.AddAddr(netip.MustParseAddr("2001:db8::b"))
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	w.Coord().SetWorkers(1)
	w.Coord().EnterParallel()

	a.Eng().ScheduleAt(sim.Time(time.Millisecond), func() {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	})
	checked := false
	a.Eng().ScheduleAt(sim.Time(2*time.Millisecond), func() {
		checked = true
		var inflight uint64
		for _, lk := range w.Links() {
			inflight += lk.LineAB().InFlight() + lk.LineBA().InFlight()
		}
		if inflight != 1 || w.LeasedBufs() != inflight {
			t.Errorf("before the barrier: %d buffers leased, %d packets in flight, want 1 and 1",
				w.LeasedBufs(), inflight)
		}
	})
	w.Run(sim.Time(2 * la))
	if !checked || b.Stats.Delivered != 1 || w.LeasedBufs() != 0 {
		t.Fatalf("checked=%v delivered=%d leased=%d", checked, b.Stats.Delivered, w.LeasedBufs())
	}
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

	// The delay model must declare a floor...
	w, a, b := build()
	mustPanic("needs a delay model with a known minimum", func() {
		w.Connect(a, b,
			noFloor{},
			FixedDelay(5*time.Millisecond))
	})

	// ...and the floor must clear the lookahead.
	w, a, b = build()
	mustPanic("below lookahead", func() {
		w.Connect(a, b,
			FixedDelay(time.Millisecond),
			FixedDelay(5*time.Millisecond))
	})

	// Same-partition links stay unconstrained: floorless models are fine
	// inside one engine.
	w = NewSharded(1, 2, 5*time.Millisecond, func(string) int { return 0 })
	a, b = w.AddNode("a", 0), w.AddNode("b", 0)
	lk := w.Connect(a, b, noFloor{}, nil)
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

// A leak-free sharded network stops creating buffers and events once its
// freelists have grown to the working set, however large that is: five
// bursts of 6 000 packets cross one link, each burst materializing 6 000
// buffers from the destination pool and 6 000 events on the destination
// engine in a single barrier drain (behind a cursor that a far timer has
// run ahead). After the first burst nothing is created or discarded
// again. A freelist capped below the burst re-makes the excess every time.
func TestShardedBurstsReuseWorkingSet(t *testing.T) {
	const (
		la    = 10 * time.Millisecond
		burst = 6000
	)
	for _, workers := range []int{1, 2} {
		w, a, b := shardedPair(t, la)
		b.AddAddr(netip.MustParseAddr("2001:db8::b"))
		a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
		delivered := 0
		b.SetHandler(func([]byte) { delivered++ })
		b.Eng().ScheduleAt(sim.Time(time.Hour), func() {})
		w.Coord().SetWorkers(workers)
		w.Coord().EnterParallel()

		pkt := mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2)
		inject := func() {
			for i := 0; i < burst; i++ {
				a.Inject(pkt)
			}
		}
		bursts := 0
		var warm packet.PoolStats
		oneBurst := func() {
			if bursts == 2 {
				warm = w.PoolStats()
			}
			bursts++
			a.Eng().ScheduleAt(w.Now()+sim.Time(time.Millisecond), inject)
			w.Run(w.Now() + sim.Time(5*la))
		}
		oneBurst()
		// AllocsPerRun's warm-up call is burst two; three to five are measured.
		allocs := testing.AllocsPerRun(3, oneBurst)

		got := w.PoolStats()
		t.Logf("workers=%d: %d bursts of %d: pools %+v, %.0f allocs per burst", workers, bursts, burst, got, allocs)
		if bursts != 5 || delivered != 5*burst {
			t.Fatalf("workers=%d: %d bursts delivered %d packets, want 5 and %d", workers, bursts, delivered, 5*burst)
		}
		if got.News != warm.News || got.Discards != warm.Discards {
			t.Fatalf("workers=%d: after burst two News %d → %d, Discards %d → %d: the pools re-make their working set",
				workers, warm.News, got.News, warm.Discards, got.Discards)
		}
		if got.Discards != 0 || got.Puts != got.Gets || w.LeasedBufs() != 0 {
			t.Fatalf("workers=%d: pools %+v with %d leased", workers, got, w.LeasedBufs())
		}
		// One worker runs epochs inline, so any allocation is the
		// engine's or the pool's; two workers add a few per epoch for the
		// goroutines, far below one per packet.
		if limit := float64(burst/100) * float64(workers-1); allocs > limit {
			t.Fatalf("workers=%d: %.0f allocations per warm burst, want ≤%.0f", workers, allocs, limit)
		}
		if c := w.Coord(); c.Stats.DrainMax != burst || b.Eng().Stats.DuePeak < burst {
			t.Fatalf("workers=%d: DrainMax=%d DuePeak=%d, want one barrier batch of %d landing behind the cursor",
				workers, c.Stats.DrainMax, b.Eng().Stats.DuePeak, burst)
		}
	}
}
