package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSerializeBufferPrependOntoContents(t *testing.T) {
	// SetBytes leaves no headroom, so the prepend grows the front.
	b := NewSerializeBuffer()
	b.SetBytes([]byte{4, 5, 6, 7})
	copy(b.PrependBytes(3), []byte{1, 2, 3})
	want := []byte{1, 2, 3, 4, 5, 6, 7}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("Bytes = %v, want %v", b.Bytes(), want)
	}
	if b.Len() != 7 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestSerializeBufferGrowsFront(t *testing.T) {
	b := NewSerializeBufferExpectedSize(2, 2)
	copy(b.PrependBytes(1), []byte{9})
	big := b.PrependBytes(100)
	for i := range big {
		big[i] = byte(i)
	}
	got := b.Bytes()
	if len(got) != 101 || got[100] != 9 || got[50] != 50 {
		t.Fatalf("front growth corrupted buffer: len=%d", len(got))
	}
}

func TestSerializeBufferZeroesReturnedSpace(t *testing.T) {
	b := NewSerializeBuffer()
	p := b.PrependBytes(8)
	for i := range p {
		p[i] = 0xff
	}
	b.Clear()
	p2 := b.PrependBytes(8)
	for i, v := range p2 {
		if v != 0 {
			t.Fatalf("byte %d not zeroed after Clear: %#x", i, v)
		}
	}
}

func TestSerializeBufferClear(t *testing.T) {
	b := NewSerializeBuffer()
	b.PrependBytes(10)
	b.Clear()
	if b.Len() != 0 {
		t.Fatalf("Len after Clear = %d", b.Len())
	}
	copy(b.PrependBytes(2), []byte{1, 2})
	if !bytes.Equal(b.Bytes(), []byte{1, 2}) {
		t.Fatalf("reuse after Clear = %v", b.Bytes())
	}
}

func TestSerializeBufferNegativePanics(t *testing.T) {
	b := NewSerializeBuffer()
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	b.PrependBytes(-1)
}

// Property: a run of prepends, some after a Clear and some growing the
// front, yields the chunks since the last Clear in reverse order.
func TestSerializeBufferOrderProperty(t *testing.T) {
	f := func(clears []bool, chunks [][]byte) bool {
		b := NewSerializeBufferExpectedSize(4, 4)
		var want []byte
		for i, c := range chunks {
			if i < len(clears) && clears[i] {
				b.Clear()
				want = nil
			}
			if len(c) > 64 {
				c = c[:64]
			}
			copy(b.PrependBytes(len(c)), c)
			want = append(append([]byte{}, c...), want...)
		}
		return bytes.Equal(b.Bytes(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumRFC1071Vector(t *testing.T) {
	// Classic example from RFC 1071 §3: data 00 01 f2 03 f4 f5 f6 f7
	// sums to ddf2 (before complement).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := checksum(data, 0); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
	// Odd length: trailing byte padded with zero.
	odd := []byte{0x01}
	if got := checksum(odd, 0); got != ^uint16(0x0100) {
		t.Fatalf("odd checksum = %#x", got)
	}
}

// Satellite: the amortized-doubling claim on the front-growth path. A
// reused buffer that repeatedly takes large prepends must converge to a
// bounded capacity instead of growing on every cycle.
func TestSerializeBufferReuseCapacityBounded(t *testing.T) {
	b := NewSerializeBufferExpectedSize(4, 4)
	const chunk = 1200
	b.Clear()
	b.PrependBytes(chunk)
	capAfterWarmup := cap(b.data)
	for i := 0; i < 10000; i++ {
		b.Clear()
		b.PrependBytes(chunk)
		b.PrependBytes(64) // header on top of the payload
	}
	if got := cap(b.data); got > 4*capAfterWarmup {
		t.Fatalf("capacity grew without bound on reuse: %d after warmup, %d after 10k cycles", capAfterWarmup, got)
	}
}

// A single growth event must at least double capacity (the invariant the
// boundedness above rests on).
func TestSerializeBufferGrowthDoubles(t *testing.T) {
	b := NewSerializeBufferExpectedSize(8, 8)
	for i := 0; i < 8; i++ {
		before := cap(b.data)
		b.PrependBytes(before + 1) // force a front growth
		if got := cap(b.data); got < 2*before {
			t.Fatalf("growth %d: cap %d -> %d, want >= %d", i, before, got, 2*before)
		}
		b.Clear()
	}
}

// Clear invariants: empty buffer, all capacity as front headroom, and
// existing capacity untouched.
func TestSerializeBufferClearHeadroom(t *testing.T) {
	b := NewSerializeBufferExpectedSize(64, 64)
	b.SetBytes(make([]byte, 40))
	b.PrependBytes(30)
	capBefore := cap(b.data)
	b.Clear()
	if b.Len() != 0 {
		t.Fatalf("Len after Clear = %d", b.Len())
	}
	if cap(b.data) != capBefore {
		t.Fatalf("Clear changed capacity: %d -> %d", capBefore, cap(b.data))
	}
	if b.start != capBefore {
		t.Fatalf("Clear headroom: start = %d, want the capacity %d", b.start, capBefore)
	}
	// The headroom is immediately usable without growth.
	b.PrependBytes(capBefore)
	if cap(b.data) != capBefore {
		t.Fatalf("prepend into advertised headroom grew buffer: %d -> %d", capBefore, cap(b.data))
	}
}

func TestSerializeBufferSetBytes(t *testing.T) {
	b := NewSerializeBufferExpectedSize(16, 16)
	pkt := []byte{1, 2, 3, 4, 5}
	b.SetBytes(pkt)
	if !bytes.Equal(b.Bytes(), pkt) {
		t.Fatalf("SetBytes contents = %v", b.Bytes())
	}
	// Mutating the source must not affect the buffer (it copied).
	pkt[0] = 99
	if b.Bytes()[0] != 1 {
		t.Fatal("SetBytes aliased its input")
	}
	// Reloading a smaller packet reuses the backing array.
	capBefore := cap(b.data)
	b.SetBytes([]byte{9})
	if cap(b.data) != capBefore {
		t.Fatalf("SetBytes reallocated for smaller input: %d -> %d", capBefore, cap(b.data))
	}
	if b.Len() != 1 || b.Bytes()[0] != 9 {
		t.Fatalf("reload: len %d bytes %v", b.Len(), b.Bytes())
	}
	// A larger packet grows it.
	big := make([]byte, capBefore+100)
	big[len(big)-1] = 7
	b.SetBytes(big)
	if b.Len() != len(big) || b.Bytes()[len(big)-1] != 7 {
		t.Fatalf("grow reload: len %d", b.Len())
	}
}
