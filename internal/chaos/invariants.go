package chaos

import (
	"fmt"
	"sort"
	"time"

	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// sortedPathIDs returns the keys of a path->line map in ascending order
// so violation messages are deterministic.
func sortedPathIDs(m map[uint8]*simnet.Line) []uint8 {
	ids := make([]uint8, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// PathEvacuation asserts the controller abandons a dead path: once the
// line carrying path id has been down longer than grace, the controller
// must not still have it as the current choice. Grace covers the full
// detection chain — the receiver's report max-age, the sender's
// StaleAfter, a decision tick, and the dwell timer.
func PathEvacuation(label string, ctrl *control.Controller, lineFor map[uint8]*simnet.Line, grace time.Duration) Invariant {
	downSince := make(map[uint8]sim.Time)
	return InvariantFunc("path-evacuation:"+label, func(now sim.Time) error {
		for _, id := range sortedPathIDs(lineFor) {
			ln := lineFor[id]
			if !ln.Down() {
				delete(downSince, id)
				continue
			}
			since, ok := downSince[id]
			if !ok {
				downSince[id] = now
				continue
			}
			if now-since > sim.Time(grace) && ctrl.Current() == id {
				return fmt.Errorf("path %d still current %s after its line went down", id, now-since)
			}
		}
		return nil
	})
}

// NoDataOnDeadPath asserts that once a path's line has been down longer
// than grace, no further *data* packets are steered onto it. Probes are
// exempt: the prober must keep exercising a dead path so its recovery is
// noticed.
func NoDataOnDeadPath(label string, sw *dataplane.Switch, lineFor map[uint8]*simnet.Line, grace time.Duration) Invariant {
	downSince := make(map[uint8]sim.Time)
	lastData := make(map[uint8]uint64)
	return InvariantFunc("no-data-on-dead-path:"+label, func(now sim.Time) error {
		for _, id := range sortedPathIDs(lineFor) {
			ln := lineFor[id]
			tun, ok := sw.Tunnel(id)
			if !ok {
				continue
			}
			data := tun.DataSent()
			if !ln.Down() {
				delete(downSince, id)
				lastData[id] = data
				continue
			}
			since, seen := downSince[id]
			if !seen {
				downSince[id] = now
				lastData[id] = data
				continue
			}
			if now-since > sim.Time(grace) {
				if data > lastData[id] {
					return fmt.Errorf("path %d carried %d data packets while down %s",
						id, data-lastData[id], now-since)
				}
				continue
			}
			// Still inside the convergence window: keep tracking so the
			// post-grace baseline is the count at grace expiry.
			lastData[id] = data
		}
		return nil
	})
}

// SeqConsistency asserts sequence tracking stays sane across failover:
// for every path the receiver-side monitor tracks, the received count
// never exceeds what the sender's tunnel sent and never moves backwards,
// and received+lost never exceeds sent+dup. The dup slack is exact: the
// simulated network never duplicates a packet, so every dup-classified
// arrival is a late gap-filler whose heal record was evicted from the
// tracker's bounded reorder window — it is counted once in Received and
// its gap entry once in Lost, overshooting the naive bound by one.
func SeqConsistency(label string, mon *control.Monitor, sender *dataplane.Switch) Invariant {
	lastRecv := make(map[uint8]uint64)
	return InvariantFunc("seq-consistency:"+label, func(now sim.Time) error {
		for _, pm := range mon.Paths() {
			recv := pm.Seq.Received
			if recv < lastRecv[pm.ID] {
				return fmt.Errorf("path %d received count went backwards: %d -> %d",
					pm.ID, lastRecv[pm.ID], recv)
			}
			lastRecv[pm.ID] = recv
			tun, ok := sender.Tunnel(pm.ID)
			if !ok {
				continue
			}
			sent := tun.Stats.Sent
			if recv > sent {
				return fmt.Errorf("path %d received %d > sent %d", pm.ID, recv, sent)
			}
			if recv+pm.Seq.Lost > sent+pm.Seq.Dup {
				return fmt.Errorf("path %d received %d + lost %d > sent %d + dup %d",
					pm.ID, recv, pm.Seq.Lost, sent, pm.Seq.Dup)
			}
		}
		return nil
	})
}

// Conservation asserts packet accounting balances across the whole
// network. Per line, Tx >= Lost + Rx (the difference is in flight). Per
// node the balance is exact, because every packet entering the routing
// function leaves it through exactly one counter:
//
//	inflow + Sent == ParseErr + Delivered + TTLExpired + NoRoute + outflow
//
// where inflow sums incoming-line Rx and outflow sums outgoing-line
// Tx + Dropped. Checks run at event boundaries, so no packet is ever
// mid-pipeline when the books are inspected.
func Conservation(label string, net *simnet.Network) Invariant {
	return InvariantFunc("conservation:"+label, func(now sim.Time) error {
		for _, lk := range net.Links() {
			for _, ln := range [2]*simnet.Line{lk.LineAB(), lk.LineBA()} {
				st := ln.Stats
				if st.Lost+st.Rx > st.Tx {
					return fmt.Errorf("link %s: lost %d + rx %d > tx %d",
						lk.Name(), st.Lost, st.Rx, st.Tx)
				}
			}
		}
		for _, n := range net.Nodes() {
			var in, out uint64
			for _, p := range n.Ports() {
				in += p.In().Stats.Rx
				out += p.Out().Stats.Tx + p.Out().Stats.Dropped
			}
			st := n.Stats
			consumed := st.ParseErr + st.Delivered + st.TTLExpired + st.NoRoute
			if in+st.Sent != consumed+out {
				return fmt.Errorf("node %s: in %d + sent %d != consumed %d + out %d",
					n.Name(), in, st.Sent, consumed, out)
			}
		}
		return nil
	})
}

// BufferBalance asserts no packet buffer leaks: the pools' outstanding
// leases (summed over every partition on a sharded network) must equal
// the packets in flight on the wire. The identity holds at every event
// boundary: every leased buffer is exactly one pending delivery, and a
// cross-partition packet staged for the next barrier keeps its source
// pool's lease until the drain moves it into the destination pool.
func BufferBalance(label string, net *simnet.Network) Invariant {
	return InvariantFunc("buffer-balance:"+label, func(now sim.Time) error {
		var inflight uint64
		for _, lk := range net.Links() {
			inflight += lk.LineAB().InFlight() + lk.LineBA().InFlight()
		}
		leased := net.LeasedBufs()
		if leased != inflight {
			return fmt.Errorf("%d buffers leased but %d packets in flight", leased, inflight)
		}
		return nil
	})
}
