// Package transport defines the I/O boundary between the Tango stack and
// whatever carries its packets. The paper's prototype runs the
// encap/probe/decide pipeline as eBPF on real hosts; this reproduction
// grew up on a simulated network. Endpoint is the contract both worlds
// satisfy: internal/simnet's Node is the virtual-time backend the
// experiments and CI run on, and internal/transport/udp is the wall-clock
// backend that carries the same encapsulated frames over real UDP
// sockets, so two tangod processes can run the identical probe/steering
// stack over loopback or a LAN.
//
// # Contract
//
// Everything the simulator used to provide implicitly is explicit here,
// because a second implementation exists and must be held to it (the
// conformance suite in transporttest checks every clause against every
// backend):
//
//   - Delivery. A frame whose outer destination is owned by the endpoint
//     (AddAddr) is handed to the installed Handler. The data slice is a
//     borrow, valid only until the handler returns; consumers that keep
//     bytes must copy them.
//   - Ordering. Frames injected back-to-back toward the same destination
//     are delivered in injection order when the path applies equal
//     per-frame delay. Neither backend reorders on its own; only an
//     explicit delay/loss model (simnet) or the real network may.
//   - Loss. Inject never blocks and never reports per-frame errors:
//     like the wire, a transport is lossy and the stack above measures
//     rather than assumes. Undeliverable frames (no route, no owner) are
//     counted and dropped, never an error.
//   - Buffers. InjectBuf takes ownership of the pooled buffer; the
//     backend releases it exactly once when the frame is consumed
//     (delivered, transmitted, or dropped). Buffers never cross a
//     process boundary — a backend that serializes onto a wire copies
//     first and releases the lease locally. Inject copies; the caller
//     keeps its slice.
//   - Time. Clock() is the node-local wall clock Tango timestamps with;
//     Now() and Schedule() expose the endpoint's event time base. On the
//     simulated backend that base is virtual time; on a socket backend it
//     is wall-clock time driven by a real-time loop. Components written
//     against this surface (tickers, controllers, probers) run unchanged
//     on either.
//
// # Threading
//
// An Endpoint is single-threaded, like the eBPF run-to-completion model
// it stands in for: the Handler, scheduled callbacks, and Inject* all
// execute on the endpoint's event goroutine. Backends that receive from
// an OS socket serialize receptions onto that goroutine themselves.
package transport

import (
	"net/netip"
	"time"

	"tango/internal/packet"
	"tango/internal/sim"
)

// Handler consumes frames delivered locally to an endpoint (the outer
// destination address is owned by the endpoint). The data slice is a
// borrow: it is valid only until the handler returns, so a handler that
// wants to keep bytes must copy them.
type Handler func(data []byte)

// Endpoint is one attachment of the Tango stack to a packet transport:
// the surface internal/dataplane's Switch drives. It is exactly the
// inject/deliver/clock/address surface internal/simnet's Node always had;
// the interface exists so a real-socket backend can stand in for it.
type Endpoint interface {
	// Name labels the endpoint (node name, site name).
	Name() string

	// SetHandler installs the local-delivery callback.
	SetHandler(h Handler)

	// AddAddr marks ip as owned: frames to ip are delivered locally.
	// Several tunnels may share one local address; claiming it again is
	// harmless.
	AddAddr(ip netip.Addr)

	// OwnsAddr reports whether ip is local to this endpoint.
	OwnsAddr(ip netip.Addr) bool

	// Inject originates a frame from this endpoint. The bytes are copied
	// (the caller keeps ownership of data); undeliverable frames are
	// counted and dropped, never an error.
	Inject(data []byte)

	// InjectBuf originates a frame held in a pooled buffer, taking
	// ownership of pb: the transport releases it when the frame is
	// consumed, and the caller must not touch pb afterwards.
	InjectBuf(pb *packet.Buf)

	// Pool returns the buffer pool components originating frames from
	// this endpoint must lease from.
	Pool() *packet.BufPool

	// Clock returns the endpoint's local wall clock (what Tango
	// timestamps carry). Offsets between endpoints are constant-ish and
	// cancel out of path comparisons, per the paper's argument.
	Clock() *sim.Clock

	// Schedule runs fn after d of the endpoint's time (virtual on the
	// simulated backend, wall-clock on a socket backend).
	Schedule(d time.Duration, fn func()) *sim.Event

	// Now returns the endpoint's current event time.
	Now() sim.Time
}
