package dataplane_test

import (
	"encoding/hex"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/simnet"
)

// goldenFrames pins the sender program's wire output, byte for byte, as
// captured on the commit before encapOn was rewritten around one
// serialize sequence (PR 19): one frame per header shape, emitted at
// virtual time 250 ms by a switch whose clock runs 1.5 s ahead.
var goldenFrames = []struct {
	name string
	emit func(sw *dataplane.Switch, inner, relayed []byte)
	hex  string
}{
	{"plain", func(sw *dataplane.Switch, inner, _ []byte) { sw.SendToPeer(inner) }, "60000000004e114020010db800a10000000000000000000120010db800b100000000000000000001a0289fc1004ebf871b0100000000000100000000684ee18060200000000e114020010db800aa0000000000000000000120010db800bb000000000000000000011b581b59000e0000676f6c64656e"},
	{"signed", func(sw *dataplane.Switch, inner, _ []byte) {
		sw.SetAuthKey(fuzzKey)
		sw.SendToPeer(inner)
	}, "60000000005e114020010db800a10000000000000000000120010db800b100000000000000000001a0289fc1005e467d1b0101000000000100000000684ee180bae2f70016608dd7d23e03cff1175aa960200000000e114020010db800aa0000000000000000000120010db800bb000000000000000000011b581b59000e0000676f6c64656e"},
	{"relay", func(sw *dataplane.Switch, _, relayed []byte) { sw.HandleHostTraffic(relayed) }, "600000000052114020010db800a10000000000000000000120010db800b100000000000000000001a0289fc10052ba6e1b0102000000000100000000684ee1800300000060200000000e114020010db800aa0000000000000000000120010db800cc000000000000000000011b581b59000e0000676f6c64656e"},
	{"report", func(sw *dataplane.Switch, inner, _ []byte) {
		sw.QueueReport(packet.OWDReport{PathID: 2, SampleCount: 513, MeanOWDNano: 31_000_001, JitterNano: 70_003})
		sw.SendToPeer(inner)
	}, "600000000062114020010db800a10000000000000000000120010db800b100000000000000000001a0289fc100629e501f0100000000000100000000684ee180020002010000000001d905c1000000000001117360200000000e114020010db800aa0000000000000000000120010db800bb000000000000000000011b581b59000e0000676f6c64656e"},
	{"signed+relay+report on tunnel 2", func(sw *dataplane.Switch, _, relayed []byte) {
		sw.SetAuthKey(fuzzKey)
		sw.QueueReport(packet.OWDReport{PathID: 1, SampleCount: 7, MeanOWDNano: -900_000_000, JitterNano: 1})
		tun, _ := sw.Tunnel(2)
		sw.SetSelector(func([]byte) *dataplane.Tunnel { return tun })
		sw.HandleHostTraffic(relayed)
	}, "600000000076114020010db800a10000000000000000000120010db800b100000000000000000002a0299fc100769fc81f0203000000000000000000684ee18001000007ffffffffca5b1700000000000000000103000000de0e840dea9cbf4ea7639160c14c2cdf60200000000e114020010db800aa0000000000000000000120010db800cc000000000000000000011b581b59000e0000676f6c64656e"},
}

func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			w := simnet.New(1)
			n := &tap{Node: w.AddNode("edge", 1500*time.Millisecond)}
			sw := dataplane.NewSwitch(n)
			sw.AddTunnel(&dataplane.Tunnel{PathID: 1, LocalAddr: fuzzLocal, RemoteAddr: fuzzRemote, SrcPort: 41000})
			sw.AddTunnel(&dataplane.Tunnel{PathID: 2, LocalAddr: fuzzLocal, RemoteAddr: fuzzRemote.Next(), SrcPort: 41001})
			sw.AddRelayPrefix(addr.MustParsePrefix("2001:db8:cc::/48"), 3)
			w.Run(250 * time.Millisecond)
			host := netip.MustParseAddr("2001:db8:aa::1")
			// An earlier packet, so the pinned frame carries sequence 1.
			sw.SendToPeer(innerUDP(host, netip.MustParseAddr("2001:db8:bb::1")))
			g.emit(sw,
				innerUDP(host, netip.MustParseAddr("2001:db8:bb::1")),
				innerUDP(host, netip.MustParseAddr("2001:db8:cc::1")))
			if len(n.sent) != 2 {
				t.Fatalf("switch emitted %d frames, want 2", len(n.sent))
			}
			if got := hex.EncodeToString(n.sent[1]); got != g.hex {
				t.Errorf("frame differs from the pinned bytes\n got %s\nwant %s", got, g.hex)
			}
		})
	}
}

// innerUDP builds the checksum-less host packet the golden frames carry.
func innerUDP(src, dst netip.Addr) []byte {
	return packet.InnerUDP{Src: src, Dst: dst, SrcPort: 7000, DstPort: 7001, TrafficClass: 2}.New([]byte("golden"))
}

// peerFrames returns two frames as the peer edge with the given key emits
// them toward fuzzLocal: a report-carrying one for a host in the direct
// prefix, and a relay-tagged one for a host beyond it.
func peerFrames(key []byte) (direct, relayed []byte) {
	_, n, e := fuzzEdge(key, fuzzRemote, fuzzLocal)
	e.Switch.AddPeerPrefix(addr.MustParsePrefix("2001:db8:aa::/48"))
	e.Switch.AddRelayPrefix(addr.MustParsePrefix("2001:db8:cc::/48"), 2)
	e.Switch.QueueReport(packet.OWDReport{PathID: 1, SampleCount: 1, MeanOWDNano: 1})
	host := netip.MustParseAddr("2001:db8:bb::1")
	e.Switch.HandleHostTraffic(innerUDP(host, netip.MustParseAddr("2001:db8:aa::1")))
	e.Switch.HandleHostTraffic(innerUDP(host, netip.MustParseAddr("2001:db8:cc::1")))
	return n.sent[0], n.sent[1]
}

// TestStatsMatchInstruments holds the two sets of counters (ROADMAP 3(d))
// to one count. The receiver sees FuzzReceiverProgram's corpus —
// accepted, truncated, corrupted and unsigned frames — plus a reporting
// and a relay-tagged frame; the sender emits probes, host data, relayed
// data, a packet with no tunnel to take and one it cannot parse. Then
// every Stats word must equal the instrument counted beside it, per
// switch and per tunnel, and every event must have been counted at all.
func TestStatsMatchInstruments(t *testing.T) {
	for _, key := range [][]byte{nil, fuzzKey} {
		w, n, e := fuzzEdge(key, fuzzLocal, fuzzRemote)
		reg := obs.NewRegistry()
		sw := e.Switch
		sw.Instrument(reg, "x")
		sw.AddPeerPrefix(addr.MustParsePrefix("2001:db8:bb::/48"))
		sw.AddRelayPrefix(addr.MustParsePrefix("2001:db8:cc::/48"), 2)
		// The relay table points back at this switch, so a relay-tagged
		// arrival is counted Relayed here and re-encapsulated here.
		relay := dataplane.NewRelay()
		relay.AddRoute(addr.MustParsePrefix("2001:db8:cc::/48"), sw)
		relay.Attach(sw)

		for _, frame := range receiverCorpus() {
			n.handle(frame)
		}
		direct, relayed := peerFrames(key)
		n.handle(direct)
		n.handle(relayed)
		host := netip.MustParseAddr("2001:db8:aa::1")
		sw.HandleHostTraffic(innerUDP(host, netip.MustParseAddr("2001:db8:bb::1")))
		sw.HandleHostTraffic(innerUDP(host, netip.MustParseAddr("2001:db8:cc::1")))
		sw.HandleHostTraffic([]byte{0x00})
		w.Run(50 * time.Millisecond) // probes go out, reports ride them
		sw.SetSelector(func([]byte) *dataplane.Tunnel { return nil })
		sw.SendToPeer(innerUDP(host, netip.MustParseAddr("2001:db8:bb::1")))

		snap := reg.Snapshot()
		st := sw.Stats
		for _, c := range []struct {
			family   string
			word     uint64
			occurred bool
		}{
			{"tango_dataplane_encapped_total", st.Encapped, true},
			{"tango_dataplane_decapped_total", st.Decapped, true},
			{"tango_dataplane_bad_packets_total", st.BadPacket, true},
			{"tango_dataplane_no_tunnel_total", st.NoTunnel, true},
			{"tango_dataplane_auth_fail_total", st.AuthFail, key != nil}, // the corpus's unsigned frames
			{"tango_dataplane_relayed_total", st.Relayed, true},
			{"tango_dataplane_reports_sent_total", st.ReportsSent, true},
			{"tango_dataplane_reports_recvd_total", st.ReportsRecvd, true},
		} {
			if got := snap[c.family+`{site="x"}`]; got != float64(c.word) || (c.word > 0) != c.occurred {
				t.Errorf("keyed %t: %s = %v, Stats word %d, expected to occur: %t", key != nil, c.family, got, c.word, c.occurred)
			}
		}
		var tx, probes, rx uint64
		for _, tun := range sw.Tunnels() {
			l := fmt.Sprintf(`{path="%d",site="x"}`, tun.PathID)
			if got := snap["tango_tunnel_tx_total"+l]; got != float64(tun.Stats.Sent) {
				t.Errorf("tunnel %d: tx counter %v, Stats.Sent %d", tun.PathID, got, tun.Stats.Sent)
			}
			if got := snap["tango_tunnel_probe_total"+l]; got != float64(tun.Stats.ProbeSent) || got == 0 {
				t.Errorf("tunnel %d: probe counter %v, Stats.ProbeSent %d", tun.PathID, got, tun.Stats.ProbeSent)
			}
			if got := snap["tango_tunnel_data_total"+l]; got != float64(tun.DataSent()) {
				t.Errorf("tunnel %d: data counter %v, DataSent %d", tun.PathID, got, tun.DataSent())
			}
			tx += tun.Stats.Sent
			probes += tun.Stats.ProbeSent
			rx += uint64(snap["tango_tunnel_rx_total"+l])
		}
		if tx != st.Encapped || probes != e.Prober.Sent || rx != st.Decapped || tx == probes {
			t.Errorf("keyed %t: tunnels sent %d (encapped %d), of them probes %d (prober sent %d); paths received %d (decapped %d)",
				key != nil, tx, st.Encapped, probes, e.Prober.Sent, rx, st.Decapped)
		}
		// Latency is timed on one program run in 8 and recorded with weight
		// 8, and only for runs the program completed, so each _count is a
		// multiple of 8 and at most 8 × ⌈timed runs ÷ 8⌉. The sender ran
		// for every encapsulation and every packet with no tunnel; the
		// receiver for every Tango datagram, whatever became of it — all
		// the bad packets but the one the sender could not parse.
		for _, h := range []struct {
			family string
			timed  uint64
		}{
			{"tango_dataplane_encap_ns", st.Encapped + st.NoTunnel},
			{"tango_dataplane_decap_ns", st.Decapped + st.AuthFail + st.BadPacket - 1},
		} {
			got := uint64(snap[h.family+`_count{site="x"}`])
			if got%8 != 0 || got > (h.timed+7)/8*8 {
				t.Errorf("keyed %t: %s_count %d from %d timed runs, want a multiple of 8 not above %d",
					key != nil, h.family, got, h.timed, (h.timed+7)/8*8)
			}
		}
	}
}
