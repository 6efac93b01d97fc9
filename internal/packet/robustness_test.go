package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The decoders parse bytes that arrive off the wire — attacker-controlled
// input. Whatever garbage comes in, they must return an error rather than
// panic or read out of bounds.

func mustNotPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", name, r)
		}
	}()
	fn()
}

func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := r.Intn(120)
		data := make([]byte, n)
		r.Read(data)
		mustNotPanic(t, "IPv6", func() {
			var l IPv6
			_ = l.DecodeFromBytes(data)
		})
		mustNotPanic(t, "IPv4", func() {
			var l IPv4
			_ = l.DecodeFromBytes(data)
		})
		mustNotPanic(t, "UDP", func() {
			var l UDP
			_ = l.DecodeFromBytes(data)
		})
		mustNotPanic(t, "Tango", func() {
			var l Tango
			_ = l.DecodeFromBytes(data)
		})
	}
}

// Property: truncating a valid packet at any byte boundary produces an
// error from at least one decoder in the chain (never a silent success
// that mis-frames the payload) — or decodes a consistent shorter view.
func TestTruncationSafetyProperty(t *testing.T) {
	buf := NewSerializeBuffer()
	pay := Payload([]byte("payload-of-known-content"))
	hdr := &Tango{Flags: TangoFlagSeq | TangoFlagTimestamp | TangoFlagReport | TangoFlagInner6,
		ExtFlags: TangoExtAuth, PathID: 1, Seq: 7, SendTime: 42,
		Report: OWDReport{PathID: 2, SampleCount: 3, MeanOWDNano: 4, JitterNano: 5}}
	udp := &UDP{SrcPort: 1, DstPort: TangoPort}
	udp.SetNetworkForChecksum(srcV6, dstV6)
	ip := &IPv6{NextHeader: ProtoUDP, HopLimit: 9, Src: srcV6, Dst: dstV6}
	if err := SerializeLayers(buf, ip, udp, hdr, &pay); err != nil {
		t.Fatal(err)
	}
	full := append([]byte{}, buf.Bytes()...)

	f := func(cut uint16) bool {
		n := int(cut) % (len(full) + 1)
		data := full[:n]
		var dip IPv6
		if err := dip.DecodeFromBytes(data); err != nil {
			return true // rejected cleanly
		}
		var dudp UDP
		if err := dudp.DecodeFromBytes(dip.LayerPayload()); err != nil {
			return true
		}
		var dtng Tango
		if err := dtng.DecodeFromBytes(dudp.LayerPayload()); err != nil {
			return true
		}
		// Fully decoded: must be the complete packet.
		return n == len(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: SignTangoDatagram/VerifyTangoDatagram never panic on garbage.
func TestAuthNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	key := []byte("k")
	for i := 0; i < 3000; i++ {
		data := make([]byte, r.Intn(80))
		r.Read(data)
		mustNotPanic(t, "Sign", func() { _ = SignTangoDatagram(key, data) })
		mustNotPanic(t, "Verify", func() { _ = VerifyTangoDatagram(key, data) })
	}
	if err := SignTangoDatagram(nil, make([]byte, 64)); err == nil {
		t.Fatal("empty key accepted")
	}
	if VerifyTangoDatagram(nil, make([]byte, 64)) {
		t.Fatal("empty key verified")
	}
}

// The receiver's chain — each layer decoding what the previous one
// framed as its payload, into reused structs — must hold up as well as
// the decoders do one at a time. Forcing the version nibble and next
// header gets most inputs past the first layer.
func TestDecodeChainNeverPanicsOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var ip IPv6
	var udp UDP
	var tng Tango
	for i := 0; i < 3000; i++ {
		data := make([]byte, r.Intn(200))
		r.Read(data)
		if len(data) > 6 && i%2 == 0 {
			data[0], data[6] = 0x60|data[0]&0x0f, ProtoUDP
		}
		mustNotPanic(t, "decode chain", func() {
			if ip.DecodeFromBytes(data) != nil || udp.DecodeFromBytes(ip.LayerPayload()) != nil {
				return
			}
			_ = udp.VerifyChecksum(ip.Src, ip.Dst, ip.LayerPayload())
			_ = tng.DecodeFromBytes(udp.LayerPayload())
		})
	}
}
