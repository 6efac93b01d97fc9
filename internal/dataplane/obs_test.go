package dataplane

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/obs"
)

// TestSwitchObsCountersMatchStats sends traffic both ways through the
// instrumented pair and checks that the registered counters agree with
// the switches' own Stats — the instruments must count the same events,
// just exposed through the registry. The latency histograms are sampled:
// the _total counters carry the exact counts.
func TestSwitchObsCountersMatchStats(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	reg := obs.NewRegistry()
	tp.swA.Instrument(reg, "a")
	tp.swB.Instrument(reg, "b")

	for i := 0; i < 5; i++ {
		tp.swA.HandleHostTraffic(innerPkt(t, "ping"))
	}
	tp.w.Run(time.Second)

	snap := reg.Snapshot()
	if got := snap[`tango_dataplane_encapped_total{site="a"}`]; got != float64(tp.swA.Stats.Encapped) {
		t.Fatalf("encap counter %v != Stats.Encapped %d", got, tp.swA.Stats.Encapped)
	}
	if got := snap[`tango_dataplane_decapped_total{site="b"}`]; got != float64(tp.swB.Stats.Decapped) {
		t.Fatalf("decap counter %v != Stats.Decapped %d", got, tp.swB.Stats.Decapped)
	}
	if got := snap[`tango_tunnel_tx_total{path="1",site="a"}`]; got != 5 {
		t.Fatalf("tunnel tx counter %v, want 5", got)
	}
	if got := snap[`tango_tunnel_data_total{path="1",site="a"}`]; got != 5 {
		t.Fatalf("tunnel data counter %v, want 5", got)
	}
	if got := snap[`tango_tunnel_probe_total{path="1",site="a"}`]; got != 0 {
		t.Fatalf("tunnel probe counter %v, want 0 (no probes sent)", got)
	}
	if got := snap[`tango_tunnel_rx_total{path="1",site="b"}`]; got != 5 {
		t.Fatalf("tunnel rx counter %v, want 5", got)
	}
	// Each program ran five times, every run accepted. Timing samples the
	// first call and every eighth after it, each sample counted 8 times:
	// one sample, a _count of 8 = 8 × ⌈5 ÷ 8⌉.
	if got := snap[`tango_dataplane_encap_ns_count{site="a"}`]; got != 8 {
		t.Fatalf("encap latency _count %v, want 8 (one sample of weight 8 from 5 encapsulations)", got)
	}
	if got := snap[`tango_dataplane_decap_ns_count{site="b"}`]; got != 8 {
		t.Fatalf("decap latency _count %v, want 8 (one sample of weight 8 from 5 accepted datagrams)", got)
	}
}

// TestSwitchObsProbeVsData distinguishes the probe counter (SendOnTunnel,
// empty inner) from the data counter.
func TestSwitchObsProbeVsData(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	reg := obs.NewRegistry()
	tp.swA.Instrument(reg, "a")

	tun, _ := tp.swA.Tunnel(2)
	for i := 0; i < 3; i++ {
		tp.swA.SendOnTunnel(tun, nil)
	}
	tp.swA.HandleHostTraffic(innerPkt(t, "data"))
	tp.w.Run(time.Second)

	snap := reg.Snapshot()
	if got := snap[`tango_tunnel_probe_total{path="2",site="a"}`]; got != 3 {
		t.Fatalf("probe counter %v, want 3", got)
	}
	if got := snap[`tango_tunnel_tx_total{path="2",site="a"}`]; got != 3 {
		t.Fatalf("tunnel 2 tx counter %v, want 3", got)
	}
	if got := snap[`tango_tunnel_data_total{path="1",site="a"}`]; got != 1 {
		t.Fatalf("data counter %v, want 1", got)
	}
}

// TestSwitchObsBadPacketCounter feeds garbage to the sender program and
// checks the bad-packet counter tracks Stats.BadPacket.
func TestSwitchObsBadPacketCounter(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	reg := obs.NewRegistry()
	tp.swA.Instrument(reg, "a")

	tp.swA.HandleHostTraffic([]byte{0x00}) // unparsable inner packet
	if tp.swA.Stats.BadPacket != 1 {
		t.Fatalf("Stats.BadPacket = %d, want 1", tp.swA.Stats.BadPacket)
	}
	snap := reg.Snapshot()
	if got := snap[`tango_dataplane_bad_packets_total{site="a"}`]; got != 1 {
		t.Fatalf("bad packet counter %v != Stats.BadPacket %d", got, tp.swA.Stats.BadPacket)
	}
}

// TestAddTunnelAfterInstrument checks tunnels registered after
// instrumentation still get per-tunnel counters.
func TestAddTunnelAfterInstrument(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	reg := obs.NewRegistry()
	tp.swA.Instrument(reg, "a")

	tun := &Tunnel{PathID: 3, Name: "late",
		LocalAddr:  netip.MustParseAddr("2001:db8:a1::99"),
		RemoteAddr: netip.MustParseAddr("2001:db8:b1::99"),
		SrcPort:    40003,
	}
	tp.swA.AddTunnel(tun)
	tp.swA.SendOnTunnel(tun, nil)
	tp.w.Run(100 * time.Millisecond)

	if got := reg.Snapshot()[`tango_tunnel_tx_total{path="3",site="a"}`]; got != 1 {
		t.Fatalf("late tunnel tx counter %v, want 1", got)
	}
}
