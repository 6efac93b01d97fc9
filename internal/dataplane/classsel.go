package dataplane

import "encoding/binary"

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
	c, ok := innerClass(inner)
	if ok && c < len(cs.classes) && cs.totals[c] > 0 {
		entries := cs.classes[c]
		h := innerFlowHash(inner) % cs.totals[c]
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

// innerClass reads the flow class from the inner header: the IPv6
// traffic-class byte or the IPv4 TOS byte.
func innerClass(inner []byte) (int, bool) {
	if len(inner) < 2 {
		return 0, false
	}
	switch inner[0] >> 4 {
	case 6:
		return int(inner[0]&0x0f)<<4 | int(inner[1]>>4), true
	case 4:
		return int(inner[1]), true
	}
	return 0, false
}

// innerFlowHash hashes the inner packet's flow identity (addresses +
// transport ports), FNV-1a.
func innerFlowHash(inner []byte) uint32 {
	var h uint32 = 2166136261
	mix := func(b []byte) {
		for _, v := range b {
			h ^= uint32(v)
			h *= 16777619
		}
	}
	if len(inner) < 1 {
		return h
	}
	switch inner[0] >> 4 {
	case 6:
		if len(inner) >= 44 {
			mix(inner[8:40])
			mix(inner[40:44])
		}
	case 4:
		if len(inner) >= 24 {
			mix(inner[12:20])
			mix(inner[20:24])
		}
	default:
		if len(inner) >= 4 {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(len(inner)))
			mix(b[:])
		}
	}
	return h
}
