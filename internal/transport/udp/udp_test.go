package udp

import (
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tango/internal/packet"
	"tango/internal/transport/transporttest"
)

func newBackend(t *testing.T, name string) *Backend {
	t.Helper()
	b, err := New(Config{Name: name, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b.Start()
	t.Cleanup(func() { b.Close() })
	return b
}

// TestEndpointConformance runs the shared transport.Endpoint suite
// against the socket backend — the same tests internal/simnet runs
// against the simulated node.
func TestEndpointConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		b := newBackend(t, "conf")
		return &transporttest.Harness{
			EP:    b,
			Do:    b.Do,
			Sleep: time.Sleep,
		}
	})
}

// waitFor polls cond (under Do) until it holds or the deadline passes.
func waitFor(t *testing.T, b *Backend, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		var ok bool
		b.Do(func() { ok = cond() })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTwoBackendsExchangeFrames moves real datagrams between two bound
// sockets: a routed frame leaves A, crosses loopback, and is delivered
// by B's handler; an emulated route delay holds the frame back at the
// sender for at least that long.
func TestTwoBackendsExchangeFrames(t *testing.T) {
	a := newBackend(t, "a")
	b := newBackend(t, "b")

	dst := netip.MustParseAddr("fd00:7e57::b1")
	var got []byte
	var at time.Time
	b.Do(func() {
		b.AddAddr(dst)
		b.SetHandler(func(data []byte) {
			got = append([]byte(nil), data...)
			at = time.Now()
		})
	})

	f := mkFrame(dst, []byte("over the wire"))
	sent := time.Now()
	a.Do(func() {
		a.AddRoute(dst, b.Addr(), 30*time.Millisecond)
		a.Inject(f)
	})
	waitFor(t, b, 2*time.Second, "frame delivery", func() bool { return got != nil })

	if _, pay, _ := packet.UDP6(got); string(pay) != "over the wire" {
		t.Fatalf("payload = %q", pay)
	}
	if el := at.Sub(sent); el < 30*time.Millisecond {
		t.Fatalf("frame arrived after %v, before the 30ms emulated delay", el)
	}
	if s := a.Stats(); s.TxFrames != 1 {
		t.Fatalf("a tx frames = %d, want 1", s.TxFrames)
	}
	if s := b.Stats(); s.RxFrames != 1 {
		t.Fatalf("b rx frames = %d, want 1", s.RxFrames)
	}

	// A frame for an address B does not own is counted, not delivered.
	a.Do(func() {
		other := netip.MustParseAddr("fd00:7e57::99")
		a.AddRoute(other, b.Addr(), 0)
		a.Inject(mkFrame(other, nil))
	})
	waitFor(t, b, 2*time.Second, "not-owned drop", func() bool { return b.notOwned.Value() == 1 })
}

// mkFrame builds an IPv6/UDP frame to dst around payload.
func mkFrame(dst netip.Addr, payload []byte) []byte {
	return packet.InnerUDP{Src: netip.MustParseAddr("fd00:7e57::1"), Dst: dst, SrcPort: 9, DstPort: 9}.New(payload)
}

// TestDoPanicReleasesLock panics under Do and recovers in the caller: the
// event lock must be free again, so the next Do and Close both return.
func TestDoPanicReleasesLock(t *testing.T) {
	b := newBackend(t, "a")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic in fn did not reach Do's caller")
			}
		}()
		b.Do(func() { panic("boom") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Do(func() {})
		b.Close()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Do and Close still blocked 2 s after a panic under Do: the event lock was never released")
	}
}

// TestBackendAbsorbsReadStall holds B's event lock — a GC pause, a
// descheduled vCPU or a slow handler does the same — while A writes a
// megabyte at it. The reader cannot hand anything over until the lock is
// released, so everything waits in the socket's receive buffer; the
// kernel-default buffer keeps under a tenth of it (92 of 1 000 frames).
func TestBackendAbsorbsReadStall(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("receive-buffer limits are read from /proc")
	}
	raw, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		t.Skip(err)
	}
	if max, _ := strconv.Atoi(strings.TrimSpace(string(raw))); max < recvBuffer {
		t.Skipf("net.core.rmem_max = %d grants less than the %d the backend asks for", max, recvBuffer)
	}
	a := newBackend(t, "a")
	b := newBackend(t, "b")
	dst := netip.MustParseAddr("fd00:7e57::b1")
	const frames = 1000
	delivered := 0
	b.Do(func() {
		b.AddAddr(dst)
		b.SetHandler(func([]byte) { delivered++ })
	})
	f := mkFrame(dst, make([]byte, 1024))
	var sent Stats
	var wrErr uint64
	b.Do(func() { // the stall
		a.Do(func() {
			a.AddRoute(dst, b.Addr(), 0)
			for i := 0; i < frames; i++ {
				a.Inject(f)
			}
		})
		sent, wrErr = a.Stats(), a.wrErr.Value()
	})
	if sent.TxFrames != frames || wrErr != 0 {
		t.Fatalf("sender wrote %d frames with %d errors, want %d and 0", sent.TxFrames, wrErr, frames)
	}
	got := 0
	for deadline := time.Now().Add(2 * time.Second); got != frames && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		b.Do(func() { got = delivered })
	}
	if rx := b.Stats().RxFrames; got != frames || rx != frames {
		t.Fatalf("delivered %d frames, RxFrames %d, want %d: the kernel dropped the rest while the reader was stalled", got, rx, frames)
	}
}

func TestParsePaths(t *testing.T) {
	ps, err := ParsePaths(" NTT:12ms, GTT:30ms,Cogent:20ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []PathSpec{{1, "NTT", 12 * time.Millisecond}, {2, "GTT", 30 * time.Millisecond}, {3, "Cogent", 20 * time.Millisecond}}
	if len(ps) != len(want) {
		t.Fatalf("got %d paths", len(ps))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("path %d = %+v, want %+v", i, ps[i], want[i])
		}
	}
	for _, bad := range []string{"", "NTT", "NTT:-3ms", "NTT:fast"} {
		if _, err := ParsePaths(bad); err == nil {
			t.Errorf("ParsePaths(%q) accepted", bad)
		}
	}
}

func TestSiteAddrsDeterministicAndDisjoint(t *testing.T) {
	swA, epA := SiteAddrs("alpha", 3)
	swA2, epA2 := SiteAddrs("alpha", 3)
	if swA != swA2 || epA[2] != epA2[2] {
		t.Fatal("SiteAddrs not deterministic")
	}
	swB, epB := SiteAddrs("beta", 3)
	if swA == swB {
		t.Fatal("switch addresses collide across sites")
	}
	seen := map[netip.Addr]bool{swA: true, swB: true}
	for _, ep := range append(epA, epB...) {
		if seen[ep] {
			t.Fatalf("address %s reused", ep)
		}
		seen[ep] = true
	}
}

// TestSessionHandshake establishes a pair over loopback and checks both
// sides converge on matching peer views and installed routes.
func TestSessionHandshake(t *testing.T) {
	paths := []PathSpec{{1, "NTT", 10 * time.Millisecond}, {2, "GTT", 20 * time.Millisecond}}
	a := newBackend(t, "a")
	b := newBackend(t, "b")

	var sa, sb *Session
	b.Do(func() {
		sb = NewSession(b, "site-b", paths)
		sb.OnError = func(err error) { t.Errorf("site-b: %v", err) }
	})
	a.Do(func() {
		sa = NewSession(a, "site-a", paths)
		sa.OnError = func(err error) { t.Errorf("site-a: %v", err) }
		sa.Dial(b.Addr())
	})

	waitFor(t, a, 5*time.Second, "dialer established", func() bool { return sa.Peer() != nil })
	waitFor(t, b, 5*time.Second, "listener established", func() bool { return sb.Peer() != nil })

	a.Do(func() {
		p := sa.Peer()
		if p.Site != "site-b" {
			t.Errorf("peer site = %q", p.Site)
		}
		wantSw, wantEp := SiteAddrs("site-b", 2)
		if p.SwitchAddr != wantSw || p.Endpoints[1] != wantEp[1] {
			t.Errorf("peer addrs not derived from site name")
		}
		// Routes toward every peer endpoint were installed at establish.
		for _, ep := range p.Endpoints {
			if a.routes[ep] == nil {
				t.Errorf("no route to peer endpoint %s", ep)
			}
		}
		if a.routes[p.Endpoints[0]].delay != 10*time.Millisecond {
			t.Errorf("route delay = %v, want local outgoing path delay", a.routes[p.Endpoints[0]].delay)
		}
	})
	b.Do(func() {
		if sb.Peer().Site != "site-a" {
			t.Errorf("listener peer site = %q", sb.Peer().Site)
		}
	})
}

// TestSessionPathMismatch checks a handshake between endpoints whose
// path sets differ is rejected with an error, not silently established.
func TestSessionPathMismatch(t *testing.T) {
	a := newBackend(t, "a")
	b := newBackend(t, "b")

	errs := make(chan error, 4)
	b.Do(func() {
		s := NewSession(b, "site-b", []PathSpec{{1, "NTT", 0}})
		s.OnError = func(err error) { errs <- err }
		s.OnEstablished = func(*Peer) { t.Error("listener established despite mismatch") }
	})
	a.Do(func() {
		s := NewSession(a, "site-a", []PathSpec{{1, "Cogent", 0}})
		s.Dial(b.Addr())
	})
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no mismatch error")
	}
}

// TestManyRoutedFrames pushes a burst through the delayed-route path to
// exercise the scheduled-transmit machinery under -race.
func TestManyRoutedFrames(t *testing.T) {
	a := newBackend(t, "a")
	b := newBackend(t, "b")
	dst := netip.MustParseAddr("fd00:7e57::b1")
	var n int
	b.Do(func() {
		b.AddAddr(dst)
		b.SetHandler(func([]byte) { n++ })
	})
	const total = 200
	a.Do(func() { a.AddRoute(dst, b.Addr(), time.Millisecond) })
	for i := 0; i < total; i++ {
		a.Do(func() { a.Inject(mkFrame(dst, []byte(fmt.Sprintf("%03d", i)))) })
	}
	// UDP over loopback is lossless in practice, but do not fail the
	// suite on a kernel-dropped datagram: require near-complete delivery.
	waitFor(t, b, 5*time.Second, "burst delivery", func() bool { return n >= total*9/10 })
	// The last tenth may still sit behind its 1 ms route delay, leased: the
	// pool balances once the sender has written every frame.
	waitFor(t, a, 5*time.Second, "sender pool leases to balance", func() bool {
		s := a.Pool().Stats
		return s.Gets == s.Puts
	})
}
