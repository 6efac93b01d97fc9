package dataplane

import (
	"testing"
	"testing/quick"
	"time"

	"tango/internal/packet"
)

var testKey = []byte("tango-pair-shared-key-0123456789")

func TestAuthRoundTrip(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	tp.swA.SetAuthKey(testKey)
	tp.swB.SetAuthKey(testKey)

	var meas []Measurement
	delivered := 0
	tp.swB.OnMeasure = func(m Measurement) { meas = append(meas, m) }
	tp.swB.DeliverLocal = func([]byte) { delivered++ }

	tp.swA.HandleHostTraffic(innerPkt(t, "signed payload"))
	tp.w.Run(time.Second)

	if len(meas) != 1 || delivered != 1 {
		t.Fatalf("signed packet not accepted: meas=%d delivered=%d authfail=%d",
			len(meas), delivered, tp.swB.Stats.AuthFail)
	}
	if meas[0].OWD != fastDelay {
		t.Fatalf("OWD = %v", meas[0].OWD)
	}
}

func TestAuthRejectsUnsigned(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	// Only the receiver requires authentication.
	tp.swB.SetAuthKey(testKey)
	got := 0
	tp.swB.OnMeasure = func(Measurement) { got++ }

	tp.swA.HandleHostTraffic(innerPkt(t, "unsigned"))
	tp.w.Run(time.Second)

	if got != 0 {
		t.Fatal("unsigned packet was measured")
	}
	if tp.swB.Stats.AuthFail != 1 {
		t.Fatalf("AuthFail = %d", tp.swB.Stats.AuthFail)
	}
}

func TestAuthRejectsWrongKey(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	tp.swA.SetAuthKey([]byte("attacker-key-aaaaaaaaaaaaaaaaaaa"))
	tp.swB.SetAuthKey(testKey)
	got := 0
	tp.swB.OnMeasure = func(Measurement) { got++ }
	tp.swA.HandleHostTraffic(innerPkt(t, "forged"))
	tp.w.Run(time.Second)
	if got != 0 || tp.swB.Stats.AuthFail != 1 {
		t.Fatalf("forged packet: got=%d authfail=%d", got, tp.swB.Stats.AuthFail)
	}
}

func TestAuthDetectsTimestampTampering(t *testing.T) {
	// An on-path attacker rewrites the embedded timestamp to fabricate
	// a better-looking path. With auth the receiver drops the packet;
	// without auth the forged measurement goes straight into the
	// monitor (the attack §6 worries about).
	for _, withAuth := range []bool{false, true} {
		tp := newTestPair(t, 0, 0)
		if withAuth {
			tp.swA.SetAuthKey(testKey)
			tp.swB.SetAuthKey(testKey)
		}
		var meas []Measurement
		tp.swB.OnMeasure = func(m Measurement) { meas = append(meas, m) }

		// A legitimate packet first, to establish the baseline.
		tp.swA.HandleHostTraffic(innerPkt(t, "legit"))
		tp.w.Run(time.Second)
		baseMeas := len(meas)

		// Manually corrupt the timestamp of a captured outer packet.
		outer := captureOuter(t, tp, withAuth)
		outer[48+8] ^= 0xff // flip a SendTime byte inside the Tango header
		fixUDPChecksum(outer)
		tp.nb.Inject(append([]byte{}, outer...))
		tp.w.Run(2 * time.Second)

		if withAuth {
			if len(meas) != baseMeas {
				t.Fatal("tampered packet measured despite auth")
			}
			if tp.swB.Stats.AuthFail == 0 {
				t.Fatal("tampering not counted")
			}
		} else {
			if len(meas) != baseMeas+1 {
				t.Fatal("tampered packet unexpectedly dropped without auth")
			}
			// The forged measurement is wildly off.
			last := meas[len(meas)-1]
			if last.OWD == fastDelay {
				t.Fatal("tampering had no effect; test is vacuous")
			}
		}
	}
}

// captureOuter builds a valid outer packet exactly as swA would emit it.
func captureOuter(t *testing.T, tp *testPair, signed bool) []byte {
	t.Helper()
	tun, _ := tp.swA.Tunnel(1)
	inner := innerPkt(t, "capture")
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload(inner)
	hdr := &packet.Tango{
		Flags:    packet.TangoFlagSeq | packet.TangoFlagTimestamp | packet.TangoFlagInner6,
		PathID:   tun.PathID,
		Seq:      999,
		SendTime: tp.na.Clock().Now(),
	}
	if signed {
		hdr.ExtFlags |= packet.TangoExtAuth
	}
	udp := &packet.UDP{SrcPort: tun.SrcPort, DstPort: packet.TangoPort}
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: tun.LocalAddr, Dst: tun.RemoteAddr}
	if err := packet.SerializeLayers(buf, ip, udp, hdr, &pay); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	if signed {
		if err := packet.SignTangoDatagram(testKey, out[48:]); err != nil {
			t.Fatal(err)
		}
	}
	fixUDPChecksum(out)
	return out
}

// fixUDPChecksum recomputes the outer UDP checksum after mutation.
func fixUDPChecksum(outer []byte) {
	// Zero the checksum; the receiver treats 0 as "disabled" only for
	// IPv4, so recompute properly via re-serialization of the UDP layer
	// is overkill — instead exploit that our test receiver verifies the
	// checksum, so set it to the correct value by re-deriving it.
	var ip packet.IPv6
	if err := ip.DecodeFromBytes(outer); err != nil {
		return
	}
	// Rebuild UDP header checksum field over the (possibly mutated)
	// datagram.
	outer[46], outer[47] = 0, 0
	c := packet.UDPChecksumFor(ip.Src, ip.Dst, outer[40:])
	outer[46] = byte(c >> 8)
	outer[47] = byte(c)
}

func TestSignVerifyProperty(t *testing.T) {
	f := func(keyRaw [16]byte, pathID uint8, seq uint32, ts int64, pay []byte) bool {
		if len(pay) > 256 {
			pay = pay[:256]
		}
		key := keyRaw[:]
		buf := packet.NewSerializeBuffer()
		p := packet.Payload(pay)
		hdr := &packet.Tango{
			Flags:    packet.TangoFlagSeq | packet.TangoFlagTimestamp,
			ExtFlags: packet.TangoExtAuth,
			PathID:   pathID, Seq: seq, SendTime: ts,
		}
		if err := packet.SerializeLayers(buf, hdr, &p); err != nil {
			return false
		}
		data := make([]byte, buf.Len())
		copy(data, buf.Bytes())
		if err := packet.SignTangoDatagram(key, data); err != nil {
			return false
		}
		if !packet.VerifyTangoDatagram(key, data) {
			return false
		}
		// Any single-bit flip must fail (outside of nothing).
		if len(data) > 0 {
			idx := int(seq) % len(data)
			if idx == 0 {
				idx = 1 // flipping the version byte fails parse anyway
			}
			data[idx] ^= 0x01
			if packet.VerifyTangoDatagram(key, data) {
				return false
			}
			data[idx] ^= 0x01
		}
		// Wrong key fails.
		other := append([]byte(nil), key...)
		other[0] ^= 0xff
		return !packet.VerifyTangoDatagram(other, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
