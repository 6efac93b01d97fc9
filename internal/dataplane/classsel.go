package dataplane

import "tango/internal/packet"

// ClassSelector is the TE layer's data-plane half: a deterministic
// weighted selector keyed by the inner packet's flow class. The sender
// stamps each flow's class into the inner IPv6 traffic-class byte (IPv4
// TOS); the selector hashes the flow identity onto that class's
// cumulative weight table, so every flow sticks to one tunnel (no
// intra-flow reordering) while the flow population spreads across
// tunnels in the installed proportions.
//
// Weights are integer quanta straight from the te solver — exact
// arithmetic, no float rounding to drift across platforms. Select
// allocates nothing; SetWeights (control-plane cadence) may.
type ClassSelector struct {
	sw *Switch
	// per class: tunnels and the cumulative quanta distribution over them.
	classes [][]classEntry
	totals  []uint32
}

type classEntry struct {
	cum uint32
	tun *Tunnel
}

// NewClassSelector builds an empty selector for numClasses flow
// classes over the switch's tunnels. Until SetWeights installs a
// class's table, that class falls back to the first registered tunnel.
// Install with sw.SetSelector(cs.Select).
func NewClassSelector(sw *Switch, numClasses int) *ClassSelector {
	return &ClassSelector{
		sw:      sw,
		classes: make([][]classEntry, numClasses),
		totals:  make([]uint32, numClasses),
	}
}

// SetWeights installs the per-class split: counts[i] quanta of the
// class ride the tunnel with path ID ids[i]. Zero-count entries and
// unknown path IDs are skipped; an all-zero install clears the class
// back to the fallback.
func (cs *ClassSelector) SetWeights(class int, ids []uint8, counts []int) {
	if class < 0 || class >= len(cs.classes) {
		return
	}
	entries := cs.classes[class][:0]
	var total uint32
	for i, id := range ids {
		if i >= len(counts) || counts[i] <= 0 {
			continue
		}
		tun, ok := cs.sw.Tunnel(id)
		if !ok {
			continue
		}
		total += uint32(counts[i])
		entries = append(entries, classEntry{cum: total, tun: tun})
	}
	cs.classes[class] = entries
	cs.totals[class] = total
}

// Select implements the Selector contract: classify by the inner
// traffic-class byte, then hash the flow onto the class's cumulative
// quanta. Packets without an installed class table (including probe or
// control traffic that carries class 0 by default) fall back to the
// first registered tunnel, matching the selector-less switch.
func (cs *ClassSelector) Select(inner []byte) *Tunnel {
	c, ok := packet.TrafficClass(inner)
	if ok && c < len(cs.classes) && cs.totals[c] > 0 {
		entries := cs.classes[c]
		h := packet.FlowHash(inner) % cs.totals[c]
		for i := range entries {
			if h < entries[i].cum {
				return entries[i].tun
			}
		}
	}
	if ts := cs.sw.Tunnels(); len(ts) > 0 {
		return ts[0]
	}
	return nil
}
