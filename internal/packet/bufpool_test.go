package packet

import (
	"bytes"
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
