package workload

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"tango/internal/addr"
	"tango/internal/dataplane"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// twoSwitchNet wires two switches over one 10ms link with one tunnel.
func twoSwitchNet(t *testing.T) (*simnet.Network, *dataplane.Switch, *dataplane.Switch) {
	t.Helper()
	w := simnet.New(4)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	cfg := simnet.FixedDelay(5 * time.Millisecond)
	w.Connect(a, b, cfg, cfg)
	a.SetRoute(addr.MustParsePrefix("2001:db8:b::/48"), a.Ports()[0])
	b.SetRoute(addr.MustParsePrefix("2001:db8:a::/48"), b.Ports()[0])
	swA := dataplane.NewSwitch(a)
	swB := dataplane.NewSwitch(b)
	swA.AddTunnel(&dataplane.Tunnel{PathID: 1, Name: "p1",
		LocalAddr:  netip.MustParseAddr("2001:db8:a::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:b::1"), SrcPort: 40001})
	swB.AddTunnel(&dataplane.Tunnel{PathID: 1, Name: "p1",
		LocalAddr:  netip.MustParseAddr("2001:db8:b::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:a::1"), SrcPort: 40001})
	swA.AddPeerPrefix(addr.MustParsePrefix("2001:db8:bb::/48"))
	return w, swA, swB
}

func TestProberCoversAllTunnels(t *testing.T) {
	w, swA, swB := twoSwitchNet(t)
	swA.AddTunnel(&dataplane.Tunnel{PathID: 2, Name: "p2",
		LocalAddr:  netip.MustParseAddr("2001:db8:a::2"),
		RemoteAddr: netip.MustParseAddr("2001:db8:b::1"), SrcPort: 40002})
	counts := map[uint8]int{}
	swB.OnMeasure = func(m dataplane.Measurement) { counts[m.PathID]++ }

	p := NewProber(w.Eng, swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"),
		10*time.Millisecond)
	w.Run(time.Second + time.Millisecond) // ticks at 10ms..1000ms
	p.Stop()
	w.Run(2 * time.Second) // drain in-flight probes
	if counts[1] != 100 || counts[2] != 100 {
		t.Fatalf("per-path probes = %v, want 100 each", counts)
	}
	if p.Sent != 200 {
		t.Fatalf("Sent = %d", p.Sent)
	}
}

func TestAppGenLatencyGroundTruth(t *testing.T) {
	w, swA, swB := twoSwitchNet(t)
	g := NewAppGen(w.Eng, swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"),
		20*time.Millisecond, 100)
	sink := g.SinkFor(w.Eng)
	swB.DeliverLocal = func(inner []byte) { sink(inner) }

	w.Run(time.Second)
	g.Stop()
	if g.seq < 45 {
		t.Fatalf("sent = %d", g.seq)
	}
	pending := 0
	for _, r := range g.FinalRecords() {
		if r.RecvAt == 0 {
			pending++
		} else if r.Latency != 5*time.Millisecond {
			t.Fatalf("latency = %v, want 5ms (ground truth, no clock offset)", r.Latency)
		}
	}
	if pending > 1 {
		t.Fatalf("pending = %d", pending)
	}
}

func TestAppGenFinalRecordsIncludeLost(t *testing.T) {
	w, swA, swB := twoSwitchNet(t)
	// 50% loss on the a->b link.
	w.Links()[0].LineAB().SetLoss(0.5)
	g := NewAppGen(w.Eng, swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"),
		5*time.Millisecond, 50)
	sink := g.SinkFor(w.Eng)
	swB.DeliverLocal = func(inner []byte) { sink(inner) }
	w.Run(2 * time.Second)
	g.Stop()
	w.Run(3 * time.Second)

	recs := g.FinalRecords()
	if uint32(len(recs)) != g.seq {
		t.Fatalf("FinalRecords %d != sent %d", len(recs), g.seq)
	}
	lost := 0
	for i, r := range recs {
		if r.RecvAt == 0 {
			lost++
		}
		if i > 0 && recs[i].SentAt < recs[i-1].SentAt {
			t.Fatal("records unsorted")
		}
	}
	if lost == 0 || lost == len(recs) {
		t.Fatalf("lost = %d of %d; loss process degenerate", lost, len(recs))
	}
}

// TestAppGenFinalRecordsJoin hands the sink one trace holding every case
// the join must handle — reordered, duplicated, lost, and never-sent
// sequence numbers, stamped by a receiver clock other than the sender's —
// and checks FinalRecords reports each emitted packet exactly once.
func TestAppGenFinalRecordsJoin(t *testing.T) {
	w, swA, swB := twoSwitchNet(t)
	g := NewAppGen(w.Eng, swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"),
		20*time.Millisecond, 100)
	recv := sim.NewEngine()
	sink := g.SinkFor(recv)
	var captured [][]byte // DeliverLocal borrows; keep copies
	swB.DeliverLocal = func(inner []byte) { captured = append(captured, append([]byte(nil), inner...)) }
	w.Run(110 * time.Millisecond) // ticks at 20..100ms: seq 0..4
	g.Stop()
	if len(captured) != 5 || g.seq != 5 {
		t.Fatalf("captured %d of %d sent, want 5 of 5", len(captured), g.seq)
	}

	if sink([]byte{1, 2, 3}) {
		t.Fatal("garbage accepted")
	}
	if sink(make([]byte, 100)) {
		t.Fatal("non-IPv6 accepted")
	}
	otherPort := append([]byte(nil), captured[0]...)
	otherPort[42], otherPort[43] = 0, 9
	if sink(otherPort) {
		t.Fatal("packet for another port accepted")
	}
	neverSent := append([]byte(nil), captured[0]...)
	neverSent[48], neverSent[49], neverSent[50], neverSent[51] = 0xff, 0xff, 0xff, 0xff

	const ms = sim.Time(time.Millisecond)
	sinkAt := func(at sim.Time, inner []byte) {
		t.Helper()
		recv.Run(at)
		if !sink(inner) {
			t.Fatalf("AppGen packet refused at %v", at)
		}
	}
	sinkAt(200*ms, captured[2]) // reordered: overtakes 0
	sinkAt(210*ms, captured[0])
	sinkAt(220*ms, captured[0]) // duplicate: the first arrival stands
	sinkAt(230*ms, neverSent)   // this generator's port, but no such packet
	sinkAt(230*ms, captured[3])
	sinkAt(240*ms, captured[4]) // seq 1 never arrives: lost

	wantRecv := []sim.Time{210 * ms, 0, 200 * ms, 230 * ms, 240 * ms}
	recs := g.FinalRecords()
	if len(recs) != len(wantRecv) {
		t.Fatalf("FinalRecords = %+v, want %d records", recs, len(wantRecv))
	}
	for i, r := range recs {
		sent := sim.Time(i+1) * 20 * ms
		want := AppRecord{Seq: uint32(i), SentAt: sent, RecvAt: wantRecv[i]}
		if want.RecvAt != 0 {
			want.Latency = want.RecvAt - sent
		}
		if r != want {
			t.Fatalf("recs[%d] = %+v, want %+v", i, r, want)
		}
	}
}

func TestInOrderModelHeadOfLineBlocking(t *testing.T) {
	// Packets sent every 10ms, normally arriving 28ms later; packet 2
	// hits a 50ms spike. In-order delivery stalls packets 3 and 4 even
	// though they arrived on time.
	mk := func(seq uint32, sentMs, latMs int64) AppRecord {
		sent := sim.Time(sentMs) * sim.Time(time.Millisecond)
		return AppRecord{Seq: seq, SentAt: sent, RecvAt: sent + sim.Time(latMs)*sim.Time(time.Millisecond)}
	}
	recs := []AppRecord{
		mk(0, 0, 28),
		mk(1, 10, 28),
		mk(2, 20, 78), // spike: arrives t=98
		mk(3, 30, 28), // arrives t=58, usable at t=98
		mk(4, 40, 28), // arrives t=68, usable at t=98
		mk(5, 50, 28), // arrives t=78, usable at t=98
		mk(6, 60, 28), // arrives t=88, usable at t=98
		mk(7, 70, 28), // arrives t=98, unaffected
	}
	lats := InOrderLatencies(recs)
	wantMs := []int64{28, 28, 78, 68, 58, 48, 38, 28}
	for i, w := range wantMs {
		if lats[i] != time.Duration(w)*time.Millisecond {
			t.Fatalf("in-order latency[%d] = %v, want %dms (all: %v)", i, lats[i], w, lats)
		}
	}
}

func TestInOrderModelLoss(t *testing.T) {
	mk := func(seq uint32, sentMs int64, lost bool) AppRecord {
		sent := sim.Time(sentMs) * sim.Time(time.Millisecond)
		r := AppRecord{Seq: seq, SentAt: sent}
		if !lost {
			r.RecvAt = sent + sim.Time(28*time.Millisecond)
		}
		return r
	}
	recs := []AppRecord{mk(0, 0, false), mk(1, 10, true), mk(2, 20, false)}
	// Lost packets are skipped and stall nothing behind them.
	lats := InOrderLatencies(recs)
	if len(lats) != 2 || lats[0] != 28*time.Millisecond || lats[1] != 28*time.Millisecond {
		t.Fatalf("lats = %v, want [28ms 28ms]", lats)
	}
}

// Property: in-order latencies are always >= raw latencies, and
// nonincreasing spikes propagate monotonically (delivery times never go
// backwards).
func TestInOrderMonotoneProperty(t *testing.T) {
	f := func(latsRaw []uint16) bool {
		recs := make([]AppRecord, len(latsRaw))
		for i, l := range latsRaw {
			sent := sim.Time(i) * sim.Time(10*time.Millisecond)
			recs[i] = AppRecord{Seq: uint32(i), SentAt: sent,
				RecvAt: sent + sim.Time(l%100)*sim.Time(time.Millisecond) + sim.Time(time.Millisecond)}
		}
		lats := InOrderLatencies(recs)
		var lastDeliver sim.Time
		for i, l := range lats {
			raw := recs[i].RecvAt - recs[i].SentAt
			if l < raw {
				return false
			}
			deliver := recs[i].SentAt + l
			if deliver < lastDeliver {
				return false
			}
			lastDeliver = deliver
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewAppGenRejectsTinyPayload(t *testing.T) {
	w, swA, _ := twoSwitchNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("payloadSize 3 did not panic (seq needs 4 bytes)")
		}
	}()
	NewAppGen(w.Eng, swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"),
		time.Second, 3)
}

func TestInOrderModelAllLost(t *testing.T) {
	mkLost := func(seq uint32, sentMs int64) AppRecord {
		return AppRecord{Seq: seq, SentAt: sim.Time(sentMs) * sim.Time(time.Millisecond)}
	}
	recs := []AppRecord{mkLost(0, 0), mkLost(1, 10), mkLost(2, 20)}
	// Every packet stalls forever and is skipped.
	if lats := InOrderLatencies(recs); len(lats) != 0 {
		t.Fatalf("all-lost trace produced %v", lats)
	}
}

func TestInOrderModelGoldenSpikeRecovery(t *testing.T) {
	// Golden HoL-blocking sequence with loss in the middle of a spike:
	// exact expected latencies, computed by hand.
	mk := func(seq uint32, sentMs, recvMs int64) AppRecord {
		r := AppRecord{Seq: seq, SentAt: sim.Time(sentMs) * sim.Time(time.Millisecond)}
		if recvMs > 0 {
			r.RecvAt = sim.Time(recvMs) * sim.Time(time.Millisecond)
		}
		return r
	}
	recs := []AppRecord{
		mk(0, 0, 60),   // spike: arrives 60
		mk(1, 10, 0),   // lost: skipped, holds nothing up
		mk(2, 20, 50),  // arrives 50, usable 60
		mk(3, 30, 140), // its own spike beyond the frontier
		mk(4, 40, 70),  // arrives 70, usable 140
	}
	lats := InOrderLatencies(recs)
	want := []time.Duration{
		60 * time.Millisecond,  // 0
		40 * time.Millisecond,  // 2: 60-20
		110 * time.Millisecond, // 3: 140-30
		100 * time.Millisecond, // 4: 140-40
	}
	if len(lats) != len(want) {
		t.Fatalf("lats = %v, want %v", lats, want)
	}
	for i := range want {
		if lats[i] != want[i] {
			t.Fatalf("lats[%d] = %v, want %v (all %v)", i, lats[i], want[i], lats)
		}
	}
}
