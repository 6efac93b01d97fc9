// Package transporttest is the conformance suite for transport.Endpoint
// implementations. Both backends — the simulated node and the UDP
// socket backend — run the same suite from their own test packages, so
// the contract documented in package transport is enforced by tests
// rather than prose: a behaviour difference between the backends is a
// failing test, not a debugging session in a live deployment.
package transporttest

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/packet"
	"tango/internal/transport"
)

// Harness adapts one backend to the suite. The suite drives the
// endpoint only through transport.Endpoint plus these three hooks, so a
// backend needs no test-only surface to participate.
type Harness struct {
	// EP is the endpoint under test.
	EP transport.Endpoint
	// Do runs fn in the backend's event context (the simulation
	// goroutine, or under the UDP backend's event lock). All Endpoint
	// calls the suite makes happen inside Do.
	Do func(fn func())
	// Sleep lets at least d of endpoint time elapse and every event due
	// within it fire — Network.Run for the simulator, a real sleep for
	// the wall-clock backend.
	Sleep func(d time.Duration)
}

// Factory builds a fresh harness per subtest; cleanup goes through
// t.Cleanup.
type Factory func(t *testing.T) *Harness

// Run executes the conformance suite against the backend built by mk.
func Run(t *testing.T, mk Factory) {
	t.Run("DeliverOwned", func(t *testing.T) { testDeliverOwned(t, mk(t)) })
	t.Run("DeliveryIsBorrow", func(t *testing.T) { testDeliveryIsBorrow(t, mk(t)) })
	t.Run("InjectCopies", func(t *testing.T) { testInjectCopies(t, mk(t)) })
	t.Run("InjectBufConsumesLease", func(t *testing.T) { testInjectBufConsumesLease(t, mk(t)) })
	t.Run("DoubleReleasePanics", func(t *testing.T) { testDoubleReleasePanics(t, mk(t)) })
	t.Run("DeliveryOrder", func(t *testing.T) { testDeliveryOrder(t, mk(t)) })
	t.Run("ScheduleOrderAndNow", func(t *testing.T) { testScheduleOrderAndNow(t, mk(t)) })
	t.Run("ClockAdvances", func(t *testing.T) { testClockAdvances(t, mk(t)) })
}

// addrA/addrB are endpoint-owned test destinations.
var (
	addrA = netip.MustParseAddr("fd00:7e57::a")
	addrB = netip.MustParseAddr("fd00:7e57::b")
)

// frame builds an IPv6/UDP frame to dst around payload; the backends read
// only its outer destination.
func frame(dst netip.Addr, payload []byte) []byte {
	return packet.InnerUDP{Src: netip.MustParseAddr("fd00:7e57::5"), Dst: dst, SrcPort: 9, DstPort: 9}.New(payload)
}

// payloadOf returns the payload view of a frame built by frame.
func payloadOf(data []byte) []byte {
	_, p, _ := packet.UDP6(data)
	return p
}

func testDeliverOwned(t *testing.T, h *Harness) {
	var got [][]byte
	h.Do(func() {
		h.EP.SetHandler(func(data []byte) {
			got = append(got, append([]byte(nil), data...))
		})
		h.EP.AddAddr(addrA)
		h.EP.Inject(frame(addrA, []byte("hello")))
	})
	h.Sleep(10 * time.Millisecond)
	h.Do(func() {
		if len(got) != 1 {
			t.Fatalf("delivered %d frames, want 1", len(got))
		}
		if string(payloadOf(got[0])) != "hello" {
			t.Fatalf("payload = %q, want hello", payloadOf(got[0]))
		}
	})
}

// testDeliveryIsBorrow checks the handler's slice is a borrow: mutating
// it must not corrupt later deliveries (each delivery views its own
// buffer bytes).
func testDeliveryIsBorrow(t *testing.T, h *Harness) {
	var payloads []string
	h.Do(func() {
		h.EP.SetHandler(func(data []byte) {
			payloads = append(payloads, string(payloadOf(data)))
			for i := range data {
				data[i] = 0xff // scribble over the borrow
			}
		})
		h.EP.AddAddr(addrA)
		h.EP.Inject(frame(addrA, []byte("one")))
		h.EP.Inject(frame(addrA, []byte("two")))
	})
	h.Sleep(10 * time.Millisecond)
	h.Do(func() {
		if len(payloads) != 2 || payloads[0] != "one" || payloads[1] != "two" {
			t.Fatalf("payloads = %q, want [one two]", payloads)
		}
	})
}

// testInjectCopies checks Inject leaves ownership of data with the
// caller: mutating the slice after Inject must not alter the delivery.
func testInjectCopies(t *testing.T, h *Harness) {
	var got string
	h.Do(func() {
		h.EP.SetHandler(func(data []byte) { got = string(payloadOf(data)) })
		h.EP.AddAddr(addrA)
		f := frame(addrA, []byte("orig"))
		h.EP.Inject(f)
		copy(payloadOf(f), "XXXX")
	})
	h.Sleep(10 * time.Millisecond)
	h.Do(func() {
		if got != "orig" {
			t.Fatalf("delivered payload = %q, want orig (Inject must copy)", got)
		}
	})
}

// testInjectBufConsumesLease checks InjectBuf takes ownership on every
// path — delivery, and drops (unparsable, unroutable) — so the pool's
// lease ledger balances.
func testInjectBufConsumesLease(t *testing.T, h *Harness) {
	h.Do(func() {
		h.EP.SetHandler(func([]byte) {})
		h.EP.AddAddr(addrA)
		pool := h.EP.Pool()

		pb := pool.Get()
		pb.SetBytes(frame(addrA, []byte("deliver")))
		h.EP.InjectBuf(pb)

		pb = pool.Get()
		pb.SetBytes([]byte{0x00, 0x01}) // no parsable outer destination
		h.EP.InjectBuf(pb)

		pb = pool.Get()
		pb.SetBytes(frame(addrB, nil)) // not owned, nowhere to route
		h.EP.InjectBuf(pb)
	})
	h.Sleep(20 * time.Millisecond)
	h.Do(func() {
		s := h.EP.Pool().Stats
		if s.Gets != s.Puts {
			t.Fatalf("pool leases unbalanced: %d gets, %d puts", s.Gets, s.Puts)
		}
	})
}

func testDoubleReleasePanics(t *testing.T, h *Harness) {
	h.Do(func() {
		pb := h.EP.Pool().Get()
		pb.Release()
		defer func() {
			if recover() == nil {
				t.Fatal("second Release did not panic")
			}
		}()
		pb.Release()
	})
}

// testDeliveryOrder checks same-destination frames arrive in injection
// order — the property Tango's sequence-number reordering detection
// calibrates against.
func testDeliveryOrder(t *testing.T, h *Harness) {
	var order []byte
	h.Do(func() {
		h.EP.SetHandler(func(data []byte) { order = append(order, payloadOf(data)[0]) })
		h.EP.AddAddr(addrA)
		for i := byte(0); i < 16; i++ {
			h.EP.Inject(frame(addrA, []byte{i}))
		}
	})
	h.Sleep(20 * time.Millisecond)
	h.Do(func() {
		if len(order) != 16 {
			t.Fatalf("delivered %d frames, want 16", len(order))
		}
		for i := byte(0); i < 16; i++ {
			if order[i] != i {
				t.Fatalf("delivery order %v not injection order", order)
			}
		}
	})
}

// testScheduleOrderAndNow checks timers fire in deadline order and that
// a callback observes Now at (or after) its own deadline.
func testScheduleOrderAndNow(t *testing.T, h *Harness) {
	var fired []string
	h.Do(func() {
		start := h.EP.Now()
		h.EP.Schedule(20*time.Millisecond, func() {
			fired = append(fired, "late")
			if h.EP.Now()-start < 20*time.Millisecond {
				t.Errorf("late timer fired at +%v, before its deadline", h.EP.Now()-start)
			}
		})
		h.EP.Schedule(5*time.Millisecond, func() { fired = append(fired, "early") })
	})
	h.Sleep(60 * time.Millisecond)
	h.Do(func() {
		if len(fired) != 2 || fired[0] != "early" || fired[1] != "late" {
			t.Fatalf("timer order = %v, want [early late]", fired)
		}
	})
}

func testClockAdvances(t *testing.T, h *Harness) {
	var before, after int64
	h.Do(func() { before = h.EP.Clock().Now() })
	h.Sleep(15 * time.Millisecond)
	h.Do(func() { after = h.EP.Clock().Now() })
	if after <= before {
		t.Fatalf("clock did not advance: %d -> %d", before, after)
	}
}
