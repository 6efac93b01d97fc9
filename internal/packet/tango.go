package packet

import (
	"encoding/binary"
	"fmt"
)

// TangoVersion is the encapsulation version this package implements.
const TangoVersion = 1

// Tango header flags.
const (
	TangoFlagSeq       = 1 << 0 // Seq field is meaningful
	TangoFlagTimestamp = 1 << 1 // SendTime field is meaningful
	TangoFlagReport    = 1 << 2 // an OWD report block follows the header
	TangoFlagInner6    = 1 << 3 // inner packet is IPv6 (else IPv4)
)

// tangoFixedLen is the fixed header size; tangoReportLen the optional
// piggybacked report block; tangoRelayLen the optional relay block.
const (
	tangoFixedLen  = 16
	tangoReportLen = 20
	tangoRelayLen  = 4
)

// TangoExtRelay marks a 4-byte relay block following the fixed header
// (and report block, when present): one TTL byte plus three reserved
// bytes. A border switch holding a relay table for the packet's inner
// destination re-encapsulates the inner packet onto the next overlay
// segment instead of delivering it locally; the TTL bounds the number of
// relay hops so a misconfigured relay table cannot loop a packet
// forever. Relaying is the §6 "Tango of N" composition: each segment is
// an ordinary pairwise Tango deployment with its own path IDs, sequence
// numbers, and timestamps.
const TangoExtRelay = 1 << 1

// Tango is the encapsulation header the sender-side program inserts
// between the outer UDP header and the tunnelled (inner) packet:
//
//	 0                   1                   2                   3
//	 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//	+-------+-------+---------------+-------------------------------+
//	|Version| Flags |    PathID     |           Reserved            |
//	+---------------+---------------+-------------------------------+
//	|                       Sequence Number                         |
//	+----------------------------------------------------------------+
//	|                                                                |
//	+                    Send Timestamp (ns, 64 bit)                 +
//	|                                                                |
//	+----------------------------------------------------------------+
//	|          optional 20-byte Report (TangoFlagReport)             |
//
// The timestamp is the sender border switch's local clock; the receiver
// computes one-way delay as its own clock minus the timestamp. Clocks need
// not be synchronised: every path between the same switch pair sees the
// same constant offset, so path *comparisons* are exact (paper §3, §4.2).
// The per-path sequence number lets the receiver compute loss and
// reordering without touching transport protocol semantics.
//
// The optional report block piggybacks the receiver's view of a reverse
// path's performance back to the sender on ordinary data traffic — no
// probes, no separate measurement channel (paper §3 "piggyback").
type Tango struct {
	Flags uint8 // 4 bits on the wire
	// ExtFlags is the extension byte (TangoExtAuth, ...).
	ExtFlags uint8
	PathID   uint8
	Seq      uint32
	SendTime int64 // sender wall clock, nanoseconds

	// RelayTTL is the remaining relay-hop budget; valid when
	// ExtFlags&TangoExtRelay != 0. A relay forwards only when it is
	// above 1, decrementing as it re-encapsulates.
	RelayTTL uint8

	// Report is the piggybacked reverse-path observation; valid when
	// Flags&TangoFlagReport != 0.
	Report OWDReport

	payload []byte
}

// OWDReport is the piggybacked measurement block: the mean observed
// one-way delay (in the observer's clock domain) and smoothed delay
// variation over SampleCount packets on path ReportPathID, in the
// direction opposite the carrying packet. Jitter is offset-free by
// construction (it is a difference of OWDs), so the consumer can use it
// directly.
type OWDReport struct {
	PathID      uint8
	SampleCount uint16
	MeanOWDNano int64
	JitterNano  int64
}

// LayerPayload returns the inner (tunnelled) packet bytes.
func (t *Tango) LayerPayload() []byte { return t.payload }

// SerializeTo prepends the Tango header.
func (t *Tango) SerializeTo(buf *SerializeBuffer) error {
	if t.Flags > 0x0f {
		return fmt.Errorf("tango: flags %#x exceed 4 bits", t.Flags)
	}
	if t.ExtFlags&TangoExtAuth != 0 {
		// Reserve a zeroed tag; the data plane signs the finished
		// datagram (it owns the key).
		buf.PrependBytes(tangoAuthLen)
	}
	if t.ExtFlags&TangoExtRelay != 0 {
		b := buf.PrependBytes(tangoRelayLen)
		b[0] = t.RelayTTL
		b[1], b[2], b[3] = 0, 0, 0
	}
	if t.Flags&TangoFlagReport != 0 {
		b := buf.PrependBytes(tangoReportLen)
		b[0] = t.Report.PathID
		binary.BigEndian.PutUint16(b[2:4], t.Report.SampleCount)
		binary.BigEndian.PutUint64(b[4:12], uint64(t.Report.MeanOWDNano))
		binary.BigEndian.PutUint64(b[12:20], uint64(t.Report.JitterNano))
	}
	b := buf.PrependBytes(tangoFixedLen)
	b[0] = TangoVersion<<4 | t.Flags
	b[1] = t.PathID
	b[2] = t.ExtFlags
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint64(b[8:16], uint64(t.SendTime))
	return nil
}

// DecodeFromBytes parses a Tango header (and report block if present).
func (t *Tango) DecodeFromBytes(data []byte) error {
	if len(data) < tangoFixedLen {
		return fmt.Errorf("tango: %w: %d bytes", errTruncated, len(data))
	}
	if v := data[0] >> 4; v != TangoVersion {
		return fmt.Errorf("tango: version %d, want %d", v, TangoVersion)
	}
	t.Flags = data[0] & 0x0f
	t.PathID = data[1]
	t.ExtFlags = data[2]
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.SendTime = int64(binary.BigEndian.Uint64(data[8:16]))
	off := tangoFixedLen
	if t.Flags&TangoFlagReport != 0 {
		if len(data) < tangoFixedLen+tangoReportLen {
			return fmt.Errorf("tango: %w report block", errTruncated)
		}
		r := data[tangoFixedLen:]
		t.Report.PathID = r[0]
		t.Report.SampleCount = binary.BigEndian.Uint16(r[2:4])
		t.Report.MeanOWDNano = int64(binary.BigEndian.Uint64(r[4:12]))
		t.Report.JitterNano = int64(binary.BigEndian.Uint64(r[12:20]))
		off += tangoReportLen
	} else {
		t.Report = OWDReport{}
	}
	if t.ExtFlags&TangoExtRelay != 0 {
		if len(data) < off+tangoRelayLen {
			return fmt.Errorf("tango: %w relay block", errTruncated)
		}
		t.RelayTTL = data[off]
		off += tangoRelayLen
	} else {
		t.RelayTTL = 0
	}
	if t.ExtFlags&TangoExtAuth != 0 {
		if len(data) < off+tangoAuthLen {
			return fmt.Errorf("tango: %w auth tag", errTruncated)
		}
		off += tangoAuthLen
	}
	t.payload = data[off:]
	return nil
}

// Payload is a raw application payload layer.
type Payload []byte

// SerializeTo prepends the payload bytes.
func (p *Payload) SerializeTo(buf *SerializeBuffer) error {
	b := buf.PrependBytes(len(*p))
	copy(b, *p)
	return nil
}
