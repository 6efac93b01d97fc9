package packet

import (
	"bytes"
	"net/netip"
	"testing"
)

func TestBufPoolRecycles(t *testing.T) {
	p := NewBufPool()
	b1 := p.Get()
	b1.SetBytes([]byte{1, 2, 3})
	b1.Release()
	b2 := p.Get()
	if b2 != b1 {
		t.Fatal("pool did not recycle the released buffer")
	}
	if b2.Len() != 0 {
		t.Fatalf("recycled buffer not cleared: len %d", b2.Len())
	}
	if p.Stats.News != 1 || p.Stats.Gets != 2 || p.Stats.Puts != 1 {
		t.Fatalf("stats = %+v", p.Stats)
	}
	b2.Release()
}

func TestBufPoolSteadyStateNoNewBuffers(t *testing.T) {
	p := NewBufPool()
	pkt := make([]byte, 1100)
	for i := 0; i < 1000; i++ {
		b := p.Get()
		b.SetBytes(pkt)
		b.Release()
	}
	if p.Stats.News != 1 {
		t.Fatalf("steady-state reuse created %d buffers", p.Stats.News)
	}
}

func TestBufPoolDoubleReleasePanics(t *testing.T) {
	p := NewBufPool()
	b := p.Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

func TestBufPoolDiscardsOversized(t *testing.T) {
	p := NewBufPool()
	b := p.Get()
	b.SetBytes(make([]byte, maxPooledCap+1))
	b.Release()
	if p.Stats.Discards != 1 || p.Free() != 0 {
		t.Fatalf("oversized buffer pooled: discards=%d free=%d", p.Stats.Discards, p.Free())
	}
	// A discarded Buf is detached: releasing it again is the caller's bug
	// but must not resurrect it into the pool.
	if b.pool != nil {
		t.Fatal("discarded buffer still bound to pool")
	}
}

// The freelist keeps the working set: once N buffers have been leased at
// the same instant (N past any fixed cap a pool might be tempted to have),
// releasing them all and leasing N again creates and discards nothing.
func TestBufPoolKeepsWorkingSet(t *testing.T) {
	const n = 3 * 4096
	p := NewBufPool()
	bufs := make([]*Buf, n)
	for round := 0; round < 2; round++ {
		for i := range bufs {
			bufs[i] = p.Get()
		}
		for _, b := range bufs {
			b.Release()
		}
		if p.Free() != n {
			t.Fatalf("round %d: freelist = %d, want the working set %d", round, p.Free(), n)
		}
	}
	if p.Stats.News != n || p.Stats.Discards != 0 {
		t.Fatalf("second burst of %d: news=%d discards=%d, want %d and 0", n, p.Stats.News, p.Stats.Discards, n)
	}
}

func TestBufSerializesLikeABuffer(t *testing.T) {
	p := NewBufPool()
	b := p.Get()
	copy(b.PrependBytes(3), []byte{4, 5, 6})
	copy(b.PrependBytes(3), []byte{1, 2, 3})
	if !bytes.Equal(b.Bytes(), []byte{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("Bytes = %v", b.Bytes())
	}
	b.Release()
}

// MoveTo hands the packet over by trading backing arrays: the bytes and
// their headroom arrive at the same address, each pool counts one lease
// or one release, and the source Buf is released.
func TestBufMoveTo(t *testing.T) {
	src, dst := NewBufPool(), NewBufPool()
	b := src.Get()
	copy(b.PrependBytes(3), []byte{4, 5, 6}) // the rest stays headroom
	want := append([]byte(nil), b.Bytes()...)
	first, headroom := &b.Bytes()[0], b.start
	srcStats, dstStats := src.Stats, dst.Stats

	nb := b.MoveTo(dst)
	if !bytes.Equal(nb.Bytes(), want) || nb.start != headroom {
		t.Fatalf("moved %v with headroom %d, want %v with %d", nb.Bytes(), nb.start, want, headroom)
	}
	if &nb.Bytes()[0] != first {
		t.Fatal("MoveTo copied the bytes instead of moving the array")
	}
	if nb.pool != dst || b.pool != src {
		t.Fatal("a Buf changed pools")
	}
	if src.Stats.Gets != srcStats.Gets || src.Stats.Puts != srcStats.Puts+1 ||
		dst.Stats.Gets != dstStats.Gets+1 || dst.Stats.Puts != dstStats.Puts {
		t.Fatalf("pool stats: src %+v → %+v, dst %+v → %+v", srcStats, src.Stats, dstStats, dst.Stats)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("releasing the moved-from Buf again did not panic")
			}
		}()
		b.Release()
	}()
	nb.Release()

	// A moved array that outgrew the pool's cap is discarded where it
	// ends up, not where it was leased.
	big := src.Get()
	big.SetBytes(make([]byte, maxPooledCap+1))
	moved := big.MoveTo(dst)
	if src.Stats.Discards != 0 {
		t.Fatal("the source pool discarded the fresh array it got back")
	}
	moved.Release()
	if dst.Stats.Discards != 1 {
		t.Fatalf("oversized moved array pooled: dst discards=%d", dst.Stats.Discards)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		src.Get().MoveTo(dst).Release()
	}); allocs != 0 {
		t.Fatalf("warm MoveTo allocates %.0f times", allocs)
	}
}

// sendStack serializes what the sender program builds around payload,
// with every optional Tango header: inner IPv6 and UDP, then the Tango
// header with report, relay and auth, then outer UDP and IPv6. It
// returns how many times the buffer's backing array grew.
func sendStack(t *testing.T, b *SerializeBuffer, payload []byte) (grew int) {
	t.Helper()
	src, dst := netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2")
	pay := Payload(payload)
	innerUDP := UDP{SrcPort: 1, DstPort: 2}
	innerIP := IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	hdr := Tango{
		Flags:    TangoFlagSeq | TangoFlagTimestamp | TangoFlagInner6 | TangoFlagReport,
		ExtFlags: TangoExtRelay | TangoExtAuth,
		RelayTTL: 1,
	}
	outerUDP := UDP{SrcPort: 3, DstPort: TangoPort}
	outerUDP.SetNetworkForChecksum(src, dst)
	outerIP := IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	// Direct calls, not a []SerializableLayer: boxing the layers would
	// allocate and hide the buffer's own allocations.
	arr := &b.data[:cap(b.data)][0]
	step := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		if now := &b.data[:cap(b.data)][0]; now != arr {
			arr = now
			grew++
		}
	}
	step(pay.SerializeTo(b))
	step(innerUDP.SerializeTo(b))
	step(innerIP.SerializeTo(b))
	step(hdr.SerializeTo(b))
	step(outerUDP.SerializeTo(b))
	step(outerIP.SerializeTo(b))
	return grew
}

// A fresh buffer is the size of the largest small packet: 64 B of
// payload under every header the sender can put on it, 216 B, rounded up
// to its Go size class (classes are 16 B apart here).
func TestBufPoolFreshBufferHoldsSmallPacket(t *testing.T) {
	b := NewBufPool().Get()
	if grew := sendStack(t, &b.SerializeBuffer, make([]byte, 64)); grew != 0 {
		t.Fatalf("a 64 B packet with every header grew a fresh buffer %d times", grew)
	}
	if b.Len() != 216 || cap(b.data) != defaultBufCap || defaultBufCap-b.Len() >= 16 {
		t.Fatalf("len %d cap %d, want 216 in the 224 B size class", b.Len(), cap(b.data))
	}
	b.Release()
}

// A 1 KiB packet grows a fresh buffer once, and the pool keeps the grown
// array: the next lease carries 1 KiB without growing.
func TestBufPoolGrownBufferStaysPooled(t *testing.T) {
	p := NewBufPool()
	b := p.Get()
	if grew := sendStack(t, &b.SerializeBuffer, make([]byte, 1024)); grew != 1 {
		t.Fatalf("a 1 KiB packet grew a fresh buffer %d times, want once", grew)
	}
	grown := cap(b.data)
	b.Release()
	b = p.Get()
	if cap(b.data) != grown || p.Stats.News != 1 || p.Stats.Discards != 0 {
		t.Fatalf("lease after growth: cap %d (want %d), stats %+v", cap(b.data), grown, p.Stats)
	}
	if grew := sendStack(t, &b.SerializeBuffer, make([]byte, 1024)); grew != 0 {
		t.Fatalf("a pooled grown buffer grew %d more times", grew)
	}
	b.Release()
}

// Growth by prepending past maxPooledCap discards the buffer on release,
// like an oversized SetBytes.
func TestBufPoolDiscardsGrownPastMax(t *testing.T) {
	p := NewBufPool()
	b := p.Get()
	sendStack(t, &b.SerializeBuffer, make([]byte, maxPooledCap))
	b.Release()
	if p.Stats.Discards != 1 || p.Free() != 0 {
		t.Fatalf("buffer grown to %d pooled: discards=%d free=%d", cap(b.data), p.Stats.Discards, p.Free())
	}
}

// A pool serving interleaved 64 B probes and 1 KiB data reaches a steady
// state: after warm-up it makes no buffer and grows no array.
func TestBufPoolMixedSizesSteadyState(t *testing.T) {
	const inFlight = 64
	p := NewBufPool()
	small, large := make([]byte, 64), make([]byte, 1024)
	bufs := make([]*Buf, inFlight)
	round := func() {
		for i := range bufs {
			bufs[i] = p.Get()
			if i%2 == 0 {
				sendStack(t, &bufs[i].SerializeBuffer, small)
			} else {
				sendStack(t, &bufs[i].SerializeBuffer, large)
			}
		}
		for _, b := range bufs {
			b.Release()
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	news := p.Stats.News
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("warm mixed-size round allocates %.0f times", allocs)
	}
	if p.Stats.News != news || p.Stats.Discards != 0 {
		t.Fatalf("warm rounds made %d buffers, discarded %d", p.Stats.News-news, p.Stats.Discards)
	}
}

// Free returns the number of buffers currently on the freelist.
func (p *BufPool) Free() (n int) {
	for b := p.free; b != nil; b = b.next {
		n++
	}
	return n
}
