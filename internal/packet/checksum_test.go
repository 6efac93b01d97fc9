package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
)

// refChecksum is the 16-bit Internet checksum loop the word-wide one
// replaced, kept as the oracle: one big-endian uint16 per step, the odd
// byte padded, folded until it fits.
func refChecksum(data []byte, initial uint32) uint16 {
	sum := initial
	n := len(data) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)&1 != 0 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// refUDPChecksumRaw is the pseudo-header sum the word-wide one replaced:
// an IPv4 address as two 16-bit words, anything else as eight.
func refUDPChecksumRaw(src, dst netip.Addr, datagram []byte) uint16 {
	var sum uint32
	for _, a := range []netip.Addr{src, dst} {
		if a.Is4() {
			b := a.As4()
			sum += uint32(binary.BigEndian.Uint16(b[0:2])) + uint32(binary.BigEndian.Uint16(b[2:4]))
			continue
		}
		b := a.As16()
		for i := 0; i < 16; i += 2 {
			sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
		}
	}
	return refChecksum(datagram, sum+ProtoUDP+uint32(len(datagram)))
}

// maxPseudoSum is the largest partial sum an IPv6 UDP pseudo-header can
// hand the checksum: two all-ones addresses, the protocol, the largest
// length.
const maxPseudoSum = 16*0xffff + 16*0xffff + ProtoUDP + 0xffff

// checksumPatterns are the byte patterns the reference comparison covers:
// random bytes, and the three that stress carries and the zero case.
func checksumPatterns(n int) map[string][]byte {
	rnd := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(rnd)
	alt := make([]byte, n)
	for i := range alt {
		alt[i] = 0xfe | byte(i&1)
	}
	return map[string][]byte{
		"random": rnd,
		"all-ff": bytes.Repeat([]byte{0xff}, n),
		"all-00": make([]byte, n),
		"fe-ff":  alt,
	}
}

// TestChecksumMatchesReference holds the word-wide checksum to the 16-bit
// loop on every length 0–2048 at every start offset 0–7, from three
// initial sums, over four byte patterns.
func TestChecksumMatchesReference(t *testing.T) {
	const maxLen = 2048
	for name, buf := range checksumPatterns(maxLen + 8) {
		for _, initial := range []uint32{0, 0xffff, maxPseudoSum} {
			for off := 0; off < 8; off++ {
				for n := 0; n <= maxLen; n++ {
					data := buf[off : off+n]
					if got, want := checksum(data, uint64(initial)), refChecksum(data, initial); got != want {
						t.Fatalf("%s, initial %#x, offset %d, length %d: checksum %#04x, reference %#04x",
							name, initial, off, n, got, want)
					}
				}
			}
		}
	}
}

// TestUDPChecksumMatchesReference holds the pseudo-header sum to the
// 16-bit one for both address families and the mapped and zero forms.
func TestUDPChecksumMatchesReference(t *testing.T) {
	addrs := []netip.Addr{
		netip.MustParseAddr("2001:db8:a1::1"),
		netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
		netip.MustParseAddr("::ffff:192.0.2.1"),
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("0.0.0.0"),
		{},
	}
	for name, buf := range checksumPatterns(1100) {
		for _, src := range addrs {
			for _, dst := range addrs {
				for _, n := range []int{0, 1, 8, 9, 63, 64, 1024, 1099} {
					d := buf[:n]
					if got, want := udpChecksumRaw(src, dst, d), refUDPChecksumRaw(src, dst, d); got != want {
						t.Fatalf("%s, %v -> %v, length %d: checksum %#04x, reference %#04x", name, src, dst, n, got, want)
					}
				}
			}
		}
	}
}

// FuzzChecksum is the same differential, coverage-guided: any bytes from
// any initial sum a pseudo-header can produce, and the pseudo-header sum
// itself over addresses taken from the input.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(0))
	f.Add(bytes.Repeat([]byte{0xff}, 67), uint32(maxPseudoSum))
	f.Add([]byte{}, uint32(0xffff))
	f.Fuzz(func(t *testing.T, data []byte, initial uint32) {
		initial %= maxPseudoSum + 1
		if len(data) > 0xffff {
			data = data[:0xffff] // the reference's uint32 sum holds any datagram, not more
		}
		if got, want := checksum(data, uint64(initial)), refChecksum(data, initial); got != want {
			t.Fatalf("initial %#x, %d bytes: checksum %#04x, reference %#04x", initial, len(data), got, want)
		}
		if len(data) < 32 {
			return
		}
		src, dst := netip.AddrFrom16([16]byte(data[:16])), netip.AddrFrom16([16]byte(data[16:32]))
		if initial&1 != 0 {
			src, dst = src.Unmap(), dst.Unmap()
		}
		if got, want := udpChecksumRaw(src, dst, data[32:]), refUDPChecksumRaw(src, dst, data[32:]); got != want {
			t.Fatalf("%v -> %v, %d bytes: checksum %#04x, reference %#04x", src, dst, len(data)-32, got, want)
		}
	})
}
