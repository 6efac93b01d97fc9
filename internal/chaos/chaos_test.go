package chaos

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// twoNodes builds a minimal network: a -- b with fixed 10 ms lines.
func twoNodes(seed int64) (*simnet.Network, *simnet.Link) {
	w := simnet.New(seed)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	lk := w.Connect(a, b,
		simnet.FixedDelay(10*time.Millisecond),
		simnet.FixedDelay(10*time.Millisecond))
	return w, lk
}

// bind instruments ch with reg and j and merges j's partition views at
// every barrier, as the deployment that binds a journal does.
func bind(ch *Engine, reg *obs.Registry, j *obs.Journal) {
	ch.eng.Coord().AtBarrier(0, func(sim.Time) { j.MergeShards() })
	ch.Instrument(reg, j)
}

// trace renders j's records one per line as "t=<at> <kind> <target>".
func trace(j *obs.Journal) string {
	var b strings.Builder
	for _, r := range j.Tail(0) {
		fmt.Fprintf(&b, "t=%s %s %s\n", r.At, r.Kind, r.Target())
	}
	return b.String()
}

func TestLinkDownAppliesAndReverts(t *testing.T) {
	w, lk := twoNodes(1)
	ch := New(w.Eng)
	ch.AddLine("ab", lk.LineAB())
	j := obs.NewJournal(8)
	bind(ch, obs.NewRegistry(), j)
	ch.Schedule(LinkDown("ab", time.Second, 2*time.Second))

	var duringDown, afterUp bool
	w.Eng.ScheduleAt(1500*time.Millisecond, func() { duringDown = lk.LineAB().Down() })
	w.Eng.ScheduleAt(3500*time.Millisecond, func() { afterUp = !lk.LineAB().Down() })
	w.Run(5 * time.Second)

	if !duringDown || !afterUp {
		t.Fatalf("down timeline wrong: during=%v after-up=%v", duringDown, afterUp)
	}
	want := "t=1s fault_apply link-down ab\nt=3s fault_revert link-down ab\n"
	if got := trace(j); got != want {
		t.Fatalf("journal:\n%q\nwant:\n%q", got, want)
	}
}

// delayRange draws n delays from the line's shaper and returns the
// extremes.
func delayRange(ln *simnet.Line, rng *sim.RNG, n int) (lo, hi time.Duration) {
	lo = time.Hour
	for i := 0; i < n; i++ {
		v := ln.Shaper().Sample(0, rng)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// TestLossBurstAndDelayFaultsRestoreState runs fault scripts against one
// 10 ms line whose resting state is 1% loss, up, no offset, no overlay.
// Each case names what the line must look like at chosen instants; every
// case must end with the line exactly at rest.
func TestLossBurstAndDelayFaultsRestoreState(t *testing.T) {
	const (
		base = 10 * time.Millisecond
		s    = time.Second
	)
	spikes := simnet.SpikeDelay{Prob: 0.02, Mean: 18 * time.Millisecond, Cap: 48 * time.Millisecond}
	type state struct {
		loss   float64
		down   bool
		offset time.Duration
		lo, hi time.Duration // extremes of 5000 sampled delays
	}
	cases := []struct {
		name   string
		faults []Fault
		at     []time.Duration
		check  func(t *testing.T, at time.Duration, st state)
	}{{
		name: "one window each",
		faults: []Fault{
			LossBurst("ab", s, s, 0.5),
			DelayShift("ab", s, s, 5*time.Millisecond),
			LinkDown("ab", s, s),
		},
		at: []time.Duration{1500 * time.Millisecond},
		check: func(t *testing.T, _ time.Duration, st state) {
			if st.loss != 0.5 || !st.down || st.offset != 5*time.Millisecond || st.lo != base+5*time.Millisecond {
				t.Errorf("during the windows: %+v", st)
			}
		},
	}, {
		// A on, B on, A off, B off, for every kind at once: a revert that
		// restores what it saw at apply time ends stuck at B's value and
		// cuts B short when A closes.
		name: "interleaved windows of one kind",
		faults: []Fault{
			LossBurst("ab", 1*s, 2*s, 0.5), LossBurst("ab", 2*s, 2*s, 0.5),
			DelayShift("ab", 1*s, 2*s, 5*time.Millisecond), DelayShift("ab", 2*s, 2*s, 3*time.Millisecond),
			LinkDown("ab", 1*s, 2*s), LinkDown("ab", 2*s, 2*s),
			Instability("ab", 1*s, 2*s, spikes, 0, 0), Instability("ab", 2*s, 2*s, spikes, 0, 0),
		},
		at: []time.Duration{2500 * time.Millisecond, 3500 * time.Millisecond},
		check: func(t *testing.T, at time.Duration, st state) {
			wantOff := 8 * time.Millisecond // both shifts open
			if at > 3*s {
				wantOff = 3 * time.Millisecond // A closed, B still open
			}
			if st.loss != 0.5 || !st.down || st.offset != wantOff || st.hi <= base+wantOff {
				t.Errorf("t=%v with a window still open: %+v", at, st)
			}
		},
	}, {
		// The Figure 4 (middle) lifecycle: turbulent edge, settled +5 ms
		// with the overlay gone, turbulent edge, original path back.
		name:   "route shift",
		faults: RouteShift("ab", time.Hour, 10*time.Minute, 5*time.Millisecond, 20*s),
		at:     []time.Duration{time.Hour + 5*s, time.Hour + time.Minute, time.Hour + 10*time.Minute + 5*s},
		check: func(t *testing.T, at time.Duration, st state) {
			switch at {
			case time.Hour + 5*s:
				if st.offset != 0 || st.lo != base || st.hi <= base {
					t.Errorf("leading edge: %+v", st)
				}
			case time.Hour + time.Minute:
				if st.offset != 5*time.Millisecond || st.lo != base+st.offset || st.hi != st.lo {
					t.Errorf("settled: %+v", st)
				}
			default:
				if st.offset != 5*time.Millisecond || st.hi <= base+st.offset {
					t.Errorf("trailing edge: %+v", st)
				}
			}
		},
	}, {
		// The Figure 4 (right) shape: some packets still at the floor,
		// spikes bounded by floor + minor tail + spike cap.
		name:   "instability",
		faults: []Fault{Instability("ab", 30*time.Minute, 5*time.Minute, spikes, time.Millisecond, 2*time.Millisecond)},
		at:     []time.Duration{31 * time.Minute},
		check: func(t *testing.T, _ time.Duration, st state) {
			if st.lo != base || st.hi < base+30*time.Millisecond || st.hi > base+5*time.Millisecond+spikes.Cap {
				t.Errorf("during instability: %+v", st)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, lk := twoNodes(1)
			ln := lk.LineAB()
			ln.SetLoss(0.01)
			ch := New(w.Eng)
			ch.AddLine("ab", ln)
			ch.Schedule(tc.faults...)
			rng := sim.NewStreams(1).Stream("test")
			look := func() state {
				lo, hi := delayRange(ln, rng, 5000)
				return state{ln.Loss(), ln.Down(), ln.Shaper().Offset(), lo, hi}
			}
			for _, at := range tc.at {
				w.Eng.ScheduleAt(at, func() { tc.check(t, at, look()) })
			}
			w.Run(2 * time.Hour)
			if got, rest := look(), (state{loss: 0.01, lo: base, hi: base}); got != rest {
				t.Fatalf("line not at rest after the last revert: %+v", got)
			}
		})
	}
}

func TestWithdrawalFaultReannouncesIdentically(t *testing.T) {
	eng := simnet.New(1).Eng // the chaos engine runs on a network partition
	pfx := addr.MustParsePrefix("2001:db8:100::/48")
	sp := bgp.NewSpeaker(eng, bgp.NewTable(pfx), "edge", 65000, 1)
	sp.OriginateWithPath(pfx, bgp.Path{65099}, bgp.Community(4242))

	ch := New(eng)
	ch.AddSpeaker("edge", sp)
	ch.Schedule(Withdrawal{Speaker: "edge", Prefix: pfx, At: time.Second, For: time.Second})

	var goneDuring bool
	eng.ScheduleAt(1500*time.Millisecond, func() {
		_, ok := sp.Originated(pfx)
		goneDuring = !ok
	})
	eng.Run(3 * time.Second)

	if !goneDuring {
		t.Fatal("prefix still originated during the withdrawal window")
	}
	r, ok := sp.Originated(pfx)
	if !ok {
		t.Fatal("prefix not re-announced after the window")
	}
	if len(r.Path) != 1 || r.Path[0] != 65099 {
		t.Fatalf("re-announced path = %v, want [65099]", r.Path)
	}
	if len(r.Communities) != 1 || r.Communities[0] != 4242 {
		t.Fatalf("re-announced communities = %v, want [4242]", r.Communities)
	}
}

// TestFaultOnUnknownTargetIsLoggedNotFatal: an apply that fails — an
// unknown line, or a withdrawal of a prefix the speaker does not
// originate — is journaled as fault_failed, counts as no apply, and
// schedules no revert.
func TestFaultOnUnknownTargetIsLoggedNotFatal(t *testing.T) {
	w, _ := twoNodes(1)
	ch := New(w.Eng)
	pfx := addr.MustParsePrefix("2001:db8:100::/48")
	ch.AddSpeaker("edge", bgp.NewSpeaker(w.Eng, bgp.NewTable(pfx), "edge", 65000, 1))
	reg, j := obs.NewRegistry(), obs.NewJournal(8)
	bind(ch, reg, j)
	down := LinkDown("nope", time.Second, time.Second)
	withdraw := Withdrawal{Speaker: "edge", Prefix: pfx, At: time.Second, For: time.Second}
	for _, c := range []struct {
		f   Fault
		err string
	}{{down, `no line "nope"`}, {withdraw, "edge does not originate 2001:db8:100::/48"}} {
		if _, err := c.f.Apply(ch); err == nil || err.Error() != c.err {
			t.Fatalf("%s: Apply error %v, want %q", c.f.Label(), err, c.err)
		}
	}
	ch.Schedule(down, withdraw)
	w.Run(3 * time.Second)
	want := "t=1s fault_failed link-down nope\nt=1s fault_failed withdraw edge 2001:db8:100::/48\n"
	if got := trace(j); got != want {
		t.Fatalf("journal:\n%q\nwant:\n%q", got, want)
	}
	if n := reg.Snapshot()["tango_chaos_faults_applied_total"]; n != 0 {
		t.Fatalf("failed applies counted as %v applied", n)
	}
}

func TestConservationAndBufferBalanceOnLiveTraffic(t *testing.T) {
	w, lk := twoNodes(1)
	a := lk.PortA().Node()
	b := lk.PortB().Node()
	dst := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dst)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	b.SetHandler(func([]byte) {})

	pkt := mkPkt(t, "2001:db8::a", "2001:db8::b")
	sim.NewTicker(w.Eng, 5*time.Millisecond, func(sim.Time) { a.Inject(pkt) })

	ch := New(w.Eng)
	ch.AddLine("ab", lk.LineAB())
	ch.Watch(Conservation("w", w))
	ch.Watch(BufferBalance("w", w))
	ch.StartChecks(20 * time.Millisecond)
	// Faults stress the accounting: admin drops and loss must balance.
	ch.Schedule(LinkDown("ab", 100*time.Millisecond, 200*time.Millisecond))
	ch.Schedule(LossBurst("ab", 500*time.Millisecond, 200*time.Millisecond, 0.5))
	w.Run(time.Second)

	if vs := ch.Violations(); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	if lk.LineAB().Stats.Lost == 0 {
		t.Fatal("loss burst lost nothing; test exercised too little")
	}
}

func TestConservationDetectsCookedBooks(t *testing.T) {
	w, lk := twoNodes(1)
	ch := New(w.Eng)
	ch.Watch(Conservation("w", w))
	ch.CheckNow()
	if len(ch.Violations()) != 0 {
		t.Fatalf("clean network flagged: %v", ch.Violations())
	}
	// A packet claimed as originated but never accounted for anywhere.
	lk.PortA().Node().Stats.Sent++
	ch.CheckNow()
	vs := ch.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Err, "node a") {
		t.Fatalf("cooked books not flagged: %v", vs)
	}
}

func TestPathEvacuationFlagsStubbornController(t *testing.T) {
	w, lk := twoNodes(1)
	a := lk.PortA().Node()
	sw := dataplane.NewSwitch(a)
	sw.AddTunnel(&dataplane.Tunnel{
		PathID:     1,
		Name:       "only",
		LocalAddr:  netip.MustParseAddr("2001:db8::a"),
		RemoteAddr: netip.MustParseAddr("2001:db8::b"),
		SrcPort:    41000,
	})
	// Static never evacuates — exactly the misbehaviour the invariant
	// exists to catch once the line has been down past the grace.
	ctrl := control.NewController(w.Eng, sw, &control.Static{ID: 1})

	ch := New(w.Eng)
	lineFor := map[uint8]*simnet.Line{1: lk.LineAB()}
	ch.Watch(PathEvacuation("a->b", ctrl, lineFor, 2*time.Second))
	ch.StartChecks(500 * time.Millisecond)
	ch.Schedule(LinkDown("ab", time.Second, 10*time.Second))
	ch.AddLine("ab", lk.LineAB())
	w.Run(6 * time.Second)

	vs := ch.Violations()
	if len(vs) == 0 {
		t.Fatal("stubborn controller not flagged")
	}
	if !strings.Contains(vs[0].Err, "path 1 still current") {
		t.Fatalf("wrong violation: %v", vs[0])
	}
}

func TestNoDataOnDeadPathExemptsProbes(t *testing.T) {
	w, lk := twoNodes(1)
	sw := dataplane.NewSwitch(lk.PortA().Node())
	tun := &dataplane.Tunnel{
		PathID:     1,
		Name:       "only",
		LocalAddr:  netip.MustParseAddr("2001:db8::a"),
		RemoteAddr: netip.MustParseAddr("2001:db8::b"),
		SrcPort:    41000,
	}
	sw.AddTunnel(tun)

	ch := New(w.Eng)
	ch.AddLine("ab", lk.LineAB())
	ch.Watch(NoDataOnDeadPath("a->b", sw, map[uint8]*simnet.Line{1: lk.LineAB()}, time.Second))
	ch.StartChecks(250 * time.Millisecond)
	ch.Schedule(LinkDown("ab", 0, 20*time.Second))

	// Probes on the dead path are fine (recovery detection needs them).
	w.Eng.ScheduleAt(3*time.Second, func() {
		tun.Stats.Sent += 10
		tun.Stats.ProbeSent += 10
	})
	w.Run(4 * time.Second)
	if vs := ch.Violations(); len(vs) != 0 {
		t.Fatalf("probes flagged as data: %v", vs)
	}

	// Data steered onto the dead path past the grace is the violation.
	w.Eng.ScheduleAt(5*time.Second, func() { tun.Stats.Sent += 3 })
	w.Run(6 * time.Second)
	vs := ch.Violations()
	if len(vs) == 0 {
		t.Fatal("data on dead path not flagged")
	}
	if !strings.Contains(vs[0].Err, "carried 3 data packets") {
		t.Fatalf("wrong violation: %v", vs[0])
	}
}

// testingT is the slice of *testing.T mkPkt needs, so the determinism
// test can call it outside a test callback.
type testingT interface {
	Helper()
	Fatal(args ...any)
}

// mkPkt builds a minimal IPv6/UDP packet.
func mkPkt(t testingT, src, dst string) []byte {
	t.Helper()
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("chaos-test"))
	udp := &packet.UDP{SrcPort: 1, DstPort: 2}
	ip := &packet.IPv6{
		NextHeader: packet.ProtoUDP,
		HopLimit:   64,
		Src:        netip.MustParseAddr(src),
		Dst:        netip.MustParseAddr(dst),
	}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}
