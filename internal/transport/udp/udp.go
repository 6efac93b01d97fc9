// Package udp is the real-socket transport backend: it carries
// Tango-encapped frames — the same outer IPv6+UDP+Tango byte stacks the
// simulator moves between nodes — as payloads of real UDP datagrams, so
// two tangod processes run the identical encap/probe/decide stack over
// loopback or a LAN. It is the "second implementation" of
// transport.Endpoint; the simulator is the first.
//
// Where internal/simnet advances an engine through virtual time, this
// backend drives the same sim.Engine with the wall clock: a run loop
// sleeps until the next scheduled event is due in real time and fires it
// (see runtime.go). Everything written against the Endpoint surface —
// tickers, controllers, probers, reporters — runs unchanged; only the
// meaning of "now" differs.
//
// Outer addresses stay in the frame: the backend routes a frame by its
// outer destination address through a configured table mapping tunnel
// endpoint addresses to real socket addresses (AddRoute), exactly the
// role the simulator's per-node FIB plays. A per-route one-way delay can
// be configured to stand in for wide-area propagation when both ends sit
// on one host — the loopback analogue of `tc netem` on a real deployment,
// and what lets the E8-live experiment reproduce a simulated scenario's
// delay ordering over 127.0.0.1.
package udp

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
	"tango/internal/transport"
)

// ctlMagic prefixes control datagrams (session handshake) on the shared
// socket. Its first byte's version nibble is 5, which no IPv4/IPv6 frame
// starts with, so control and data traffic cannot be confused.
var ctlMagic = [4]byte{'T', 'N', 'G', 1}

// maxDatagram bounds one received datagram: an MTU-sized inner packet
// plus encapsulation fits many times over; anything larger than a jumbo
// frame is not a Tango datagram.
const maxDatagram = 64 << 10

// recvBuffer is the socket receive buffer New asks for; the kernel grants
// the smaller of this and net.core.rmem_max. Its default (208 KiB on
// Linux) holds a paced 1 KiB stream for about 13 ms, so any longer stall
// of the event goroutine — a GC pause, a descheduled vCPU, a slow
// handler holding the lock — made the kernel drop datagrams the sender
// had already counted as sent. 4 MiB rides out a stall twenty times as
// long and is what rmem_max commonly allows.
const recvBuffer = 4 << 20

// Config parameterizes New.
type Config struct {
	// Name labels the backend's instruments (site name).
	Name string
	// Listen is the UDP address to bind ("127.0.0.1:0" picks a port).
	Listen string
	// Registry receives the backend's instruments; nil creates a private
	// one (counters are always live, so Stats never lies).
	Registry *obs.Registry
}

// Stats is a point-in-time snapshot of the backend's frame counters; the
// rest are tango_transport_* families in the registry.
type Stats struct {
	TxFrames, RxFrames uint64
}

// route maps one outer destination address to a socket address, with an
// optional emulated one-way propagation delay applied at the sender. It
// doubles as the sim.ArgHandler for its own delayed transmissions, so a
// scheduled send carries no closure.
type route struct {
	b     *Backend
	to    netip.AddrPort
	delay time.Duration
}

// OnSimEvent fires at a delayed frame's departure instant with the owned
// buffer as payload.
func (rt *route) OnSimEvent(arg any) { rt.b.write(rt, arg.(*packet.Buf)) }

// Backend is one endpoint of the UDP transport. It implements
// transport.Endpoint; all Endpoint methods must run on the event
// goroutine (inside Do, a delivery handler, or a scheduled callback),
// mirroring the single-goroutine discipline of the simulated backend.
type Backend struct {
	// mu serializes the event world: the engine, the owned-address and
	// route tables, and every handler invocation. The run loop, the read
	// loop, and Do all take it; the stack above is therefore effectively
	// single-threaded, like a simnet partition.
	mu    sync.Mutex
	eng   *sim.Engine
	clock *sim.Clock
	pool  *packet.BufPool

	conn  *net.UDPConn
	start time.Time // wall anchor: sim.Time 0 == start

	handler   transport.Handler
	onControl func(from netip.AddrPort, payload []byte)
	owned     map[netip.Addr]bool
	routes    map[netip.Addr]*route

	wake   chan struct{}
	closed bool
	wg     sync.WaitGroup

	txFrames, txBytes *obs.Counter
	rxFrames, rxBytes *obs.Counter
	noRoute, parseErr *obs.Counter
	notOwned, wrErr   *obs.Counter
	ctlTx, ctlRx      *obs.Counter
	ctlRejected       *obs.Counter
}

// New binds the socket and prepares (but does not start) the backend;
// call Start once the stack is wired.
func New(cfg Config) (*Backend, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen %q: %w", cfg.Listen, err)
	}
	if err := conn.SetReadBuffer(recvBuffer); err != nil {
		conn.Close()
		return nil, fmt.Errorf("udp: set receive buffer on %q: %w", cfg.Listen, err)
	}
	eng := sim.NewEngine()
	b := &Backend{
		eng:    eng,
		clock:  sim.NewClock(eng, 0),
		pool:   packet.NewBufPool(),
		conn:   conn,
		start:  time.Now(),
		owned:  make(map[netip.Addr]bool),
		routes: make(map[netip.Addr]*route),
		wake:   make(chan struct{}, 1),
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.L("site", cfg.Name)
	b.txFrames = reg.Counter("tango_transport_tx_frames_total", "Tango frames written to the UDP socket.", l)
	b.txBytes = reg.Counter("tango_transport_tx_bytes_total", "Frame bytes written to the UDP socket.", l)
	b.rxFrames = reg.Counter("tango_transport_rx_frames_total", "Tango frames delivered from the UDP socket.", l)
	b.rxBytes = reg.Counter("tango_transport_rx_bytes_total", "Frame bytes delivered from the UDP socket.", l)
	b.noRoute = reg.Counter("tango_transport_no_route_total", "Outbound frames dropped: destination not routed.", l)
	b.parseErr = reg.Counter("tango_transport_parse_err_total", "Frames dropped: no parsable outer destination.", l)
	b.notOwned = reg.Counter("tango_transport_not_owned_total", "Arriving frames dropped: destination not owned here.", l)
	b.wrErr = reg.Counter("tango_transport_write_err_total", "Socket write failures.", l)
	b.ctlTx = reg.Counter("tango_transport_ctl_tx_total", "Control datagrams sent (session handshake).", l)
	b.ctlRx = reg.Counter("tango_transport_ctl_rx_total", "Control datagrams received (session handshake).", l)
	b.ctlRejected = reg.Counter("tango_transport_ctl_rejected_total", "Control datagrams dropped: not JSON, not a hello or an ack, an ack from an address never dialed, or a hello from a non-peer.", l)
	return b, nil
}

// Addr returns the socket's bound address.
func (b *Backend) Addr() netip.AddrPort { return b.conn.LocalAddr().(*net.UDPAddr).AddrPort() }

// Eng returns the backend's engine: virtual time driven by the wall
// clock. Control components (tickers, controllers) schedule here exactly
// as they would on a simnet partition engine.
func (b *Backend) Eng() *sim.Engine { return b.eng }

// Stats snapshots the backend's counters.
func (b *Backend) Stats() Stats {
	return Stats{TxFrames: b.txFrames.Value(), RxFrames: b.rxFrames.Value()}
}

// AddRoute maps an outer destination address to a peer socket address,
// with an emulated one-way delay applied before each transmission
// (0 sends immediately). Event-goroutine only.
func (b *Backend) AddRoute(dst netip.Addr, to netip.AddrPort, delay time.Duration) {
	b.routes[dst] = &route{b: b, to: to, delay: delay}
}

// SetControlHandler installs the consumer for control datagrams (the
// session handshake). Event-goroutine only.
func (b *Backend) SetControlHandler(fn func(from netip.AddrPort, payload []byte)) {
	b.onControl = fn
}

// SendControl writes a control datagram (magic-prefixed payload) to a
// peer socket address.
func (b *Backend) SendControl(to netip.AddrPort, payload []byte) {
	buf := make([]byte, 0, len(ctlMagic)+len(payload))
	buf = append(buf, ctlMagic[:]...)
	buf = append(buf, payload...)
	if _, err := b.conn.WriteToUDPAddrPort(buf, to); err != nil {
		b.wrErr.Inc()
		return
	}
	b.ctlTx.Inc()
}

// --- transport.Endpoint ---

var _ transport.Endpoint = (*Backend)(nil)

// SetHandler installs the local-delivery callback.
func (b *Backend) SetHandler(h transport.Handler) { b.handler = h }

// AddAddr marks ip as owned, like the simulated node.
func (b *Backend) AddAddr(ip netip.Addr) { b.owned[ip] = true }

// Pool returns the pool outgoing frames must be leased from.
func (b *Backend) Pool() *packet.BufPool { return b.pool }

// Clock returns the endpoint's local clock (wall-clock elapsed since the
// backend started; offsets between processes are constant-ish and cancel
// out of path comparisons).
func (b *Backend) Clock() *sim.Clock { return b.clock }

// Schedule runs fn after d of wall-clock time.
func (b *Backend) Schedule(d time.Duration, fn func()) *sim.Event {
	return b.eng.Schedule(d, fn)
}

// Now returns wall-clock time elapsed since the backend started, as seen
// by the event engine.
func (b *Backend) Now() sim.Time { return b.eng.Now() }

// Inject originates a frame, copying data into a pooled buffer.
func (b *Backend) Inject(data []byte) {
	pb := b.pool.Get()
	pb.SetBytes(data)
	b.InjectBuf(pb)
}

// InjectBuf originates a frame held in a pooled buffer, taking ownership:
// the frame is delivered locally (owned destination), transmitted toward
// its routed peer after the route's emulated delay, or counted and
// dropped. The buffer never crosses the process boundary — transmission
// copies the bytes into the socket and releases the lease here.
func (b *Backend) InjectBuf(pb *packet.Buf) {
	data := pb.Bytes()
	dst, _, ok := packet.Dst(data)
	if !ok {
		b.parseErr.Inc()
		pb.Release()
		return
	}
	if b.owned[dst] {
		// Hairpin: a frame for an address owned here never touches the
		// socket, mirroring local delivery on the simulated node.
		b.rxFrames.Inc()
		b.rxBytes.Add(uint64(len(data)))
		if b.handler != nil {
			b.handler(data)
		}
		pb.Release()
		return
	}
	rt := b.routes[dst]
	if rt == nil {
		b.noRoute.Inc()
		pb.Release()
		return
	}
	if rt.delay > 0 {
		// Ownership of pb rides the event; the engine fires it on the
		// run loop when the emulated propagation has elapsed.
		b.eng.ScheduleArg(rt.delay, rt, pb)
		return
	}
	b.write(rt, pb)
}

// write moves a frame onto the wire and releases its buffer.
func (b *Backend) write(rt *route, pb *packet.Buf) {
	data := pb.Bytes()
	if _, err := b.conn.WriteToUDPAddrPort(data, rt.to); err != nil {
		b.wrErr.Inc()
	} else {
		b.txFrames.Inc()
		b.txBytes.Add(uint64(len(data)))
	}
	pb.Release()
}

// deliver consumes one received datagram on the event goroutine (mu
// held, clock advanced): control datagrams go to the session handler,
// frames for owned addresses to the delivery handler, the rest to the
// drop counters. data is a borrow of the read loop's buffer.
func (b *Backend) deliver(from netip.AddrPort, data []byte) {
	if len(data) >= len(ctlMagic) && [4]byte(data[:4]) == ctlMagic {
		b.ctlRx.Inc()
		if b.onControl != nil {
			b.onControl(from, data[len(ctlMagic):])
		}
		return
	}
	dst, _, ok := packet.Dst(data)
	if !ok {
		b.parseErr.Inc()
		return
	}
	if !b.owned[dst] {
		b.notOwned.Inc()
		return
	}
	b.rxFrames.Inc()
	b.rxBytes.Add(uint64(len(data)))
	if b.handler != nil {
		b.handler(data)
	}
}
