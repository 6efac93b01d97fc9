package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
	"tango/internal/transport"
	"tango/internal/transport/udp"
	"tango/internal/workload"
)

// udp_loopback wires, twice in one process, the stack cmd/tangod/live.go
// wires per process — udp.Backend, the session handshake, the switch, the
// monitor, controller, reporter and prober — and drives data through it
// over 127.0.0.1. tangod itself cannot generate data load and this
// benchmark may not change it. Traffic crosses the loopback interface
// only; nothing here says anything about a real link.
const (
	udpPaths       = "NTT:0ms,GTT:0ms,Cogent:0ms" // three paths, no emulated delay
	udpProbeEvery  = 20 * time.Millisecond        // tangod's defaults
	udpReportEvery = 25 * time.Millisecond
	udpDecideEvery = 100 * time.Millisecond

	udpDataPort    = 7003
	udpPacedPPS    = 20_000
	udpPacedInner  = 64                     // bytes of inner packet in the paced phase
	udpSatInner    = 1024                   // and in the saturate phase
	udpOutstanding = 64                     // closed-loop window of the saturate phase
	udpLossTimeout = 100 * time.Millisecond // a token missing this long counts as a lost packet
	udpMaxBehind   = time.Millisecond       // a paced generator later than this skips ahead instead of bursting
)

// udpSide is one endpoint: what one tangod process would be.
type udpSide struct {
	site string
	be   *udp.Backend
	ep   transport.Endpoint // be, or its tracing decorator
	sw   *dataplane.Switch
	mon  *control.Monitor
	ctl  *control.Controller
	rep  *control.Reporter
	prb  *workload.Prober
	sess *udp.Session
	reg  *obs.Registry
	tr   *tracer

	established chan struct{}
	sessErr     chan error
}

// tracedEndpoint decorates a transport.Endpoint with spans around the calls
// the switch makes into it, and around the delivery it makes into the
// switch. It is only ever handed to a switch the benchmark constructs.
type tracedEndpoint struct {
	transport.Endpoint
	tr *tracer
}

func (e *tracedEndpoint) InjectBuf(pb *packet.Buf) {
	id := e.tr.begin(spanInject, 0)
	e.Endpoint.InjectBuf(pb)
	e.tr.end(id)
}

func (e *tracedEndpoint) Inject(data []byte) {
	id := e.tr.begin(spanInject, 0)
	e.Endpoint.Inject(data)
	e.tr.end(id)
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(data []byte) {
		id := e.tr.begin(spanHandle, 0)
		h(data)
		e.tr.end(id)
	})
}

func (e *tracedEndpoint) Schedule(d time.Duration, fn func()) *sim.Event {
	id := e.tr.begin(spanSchedule, 0)
	ev := e.Endpoint.Schedule(d, fn)
	e.tr.end(id)
	return ev
}

func newUDPSide(site string, paths []udp.PathSpec, tr *tracer) (*udpSide, error) {
	s := &udpSide{site: site, reg: obs.NewRegistry(), tr: tr,
		established: make(chan struct{}), sessErr: make(chan error, 1)}
	j := obs.NewJournal(4096)
	be, err := udp.New(udp.Config{Name: site, Listen: "127.0.0.1:0", Registry: s.reg})
	if err != nil {
		return nil, err
	}
	s.be, s.ep = be, be
	if tr != nil {
		s.ep = &tracedEndpoint{Endpoint: be, tr: tr}
	}
	s.sw = dataplane.NewSwitch(s.ep)
	s.sw.Instrument(s.reg, site)
	s.mon = control.NewMonitor()
	s.mon.Instrument(s.reg, site)
	s.sess = udp.NewSession(be, site, paths)
	s.sess.OnEstablished = func(p *udp.Peer) {
		for _, ep := range s.sess.Endpoints() {
			s.ep.AddAddr(ep)
		}
		for i, ps := range paths {
			s.sw.AddTunnel(&dataplane.Tunnel{
				PathID:     ps.ID,
				Name:       ps.Name,
				LocalAddr:  s.sess.SwitchAddr(),
				RemoteAddr: p.Endpoints[i],
				SrcPort:    uint16(41000 + i),
			})
		}
		s.mon.Attach(s.sw, func(id uint8) string {
			if int(id) >= 1 && int(id) <= len(p.Paths) {
				return p.Paths[id-1].Name
			}
			return fmt.Sprintf("path-%d", id)
		})
		s.ctl = control.NewController(be.Eng(), s.sw,
			&control.MinOWD{HysteresisMs: 1, MinDwell: 300 * time.Millisecond, StaleAfter: 5 * time.Second})
		s.ctl.AttachFeedback(s.sw)
		s.ctl.Instrument(s.reg, j, site)
		s.ctl.Start(udpDecideEvery)
		s.rep = control.NewReporter(be.Eng(), s.mon, s.sw, udpReportEvery)
		s.rep.MaxAge = 5 * udpReportEvery
		s.prb = workload.NewProber(be.Eng(), s.sw, s.sess.SwitchAddr(), p.SwitchAddr, udpProbeEvery)
		if tr != nil {
			traceSwitch(s.sw, s.ctl, tr)
		}
		close(s.established)
	}
	s.sess.OnError = func(err error) {
		select {
		case s.sessErr <- err:
		default:
		}
	}
	be.Start()
	return s, nil
}

func (s *udpSide) close() {
	s.be.Do(func() {
		if s.prb != nil {
			s.prb.Stop()
			s.rep.Stop()
			s.ctl.Stop()
		}
	})
	s.be.Close()
}

// udpWorld is an established pair with a data generator on side a and a
// checking receiver on side b.
type udpWorld struct {
	a, b  *udpSide
	epoch time.Time

	pattern []byte         // seeded bytes every payload is cut from
	tmpl    map[int][]byte // inner packet template per inner size
	sendFn  map[int]func() // preallocated Do bodies, one per inner size
	seen    []uint64       // bitmap of delivered sequence numbers
	nextSeq uint64         // generator-owned
	tokens  chan struct{}  // closed-loop window; the receiver returns one per delivery
	latency []float64      // paced phase: due instant -> DeliverLocal, µs
	phase   atomic.Int32   // what the receiver does with a delivery (phase* below)
	offered atomic.Uint64  // packets handed to SendToPeer
	got     atomic.Uint64  // packets delivered, checked, not duplicates
	corrupt atomic.Uint64  // delivered bytes that differ from what was sent
	dups    atomic.Uint64  // sequence numbers delivered twice
	lagOn   atomic.Bool    // run-loop lag probe armed
	lag     []float64      // Schedule(d) -> fire lateness on side a, µs
	anchor  time.Time      // wall instant of side a's engine time zero
	skipped uint64         // paced slots the generator skipped because the host stalled it
	curSeq  uint64         // sequence number of the packet being sent (for spans)
	stage   map[string]float64
}

const (
	phaseIdle int32 = iota
	phasePaced
	phaseSaturate
)

// newUDPWorld binds, shakes hands and warms up. Everything up to the end
// of the warm-up second is set-up.
func newUDPWorld(seed int64, warmup time.Duration, ts *tracerSet) (*udpWorld, error) {
	paths, err := udp.ParsePaths(udpPaths)
	if err != nil {
		return nil, err
	}
	var tra, trb *tracer
	if ts != nil {
		tra, trb = ts.forPart(0), ts.forPart(1)
	}
	u := &udpWorld{epoch: time.Now(), stage: map[string]float64{},
		tmpl: map[int][]byte{}, sendFn: map[int]func(){}}
	lap := stageTimer(u.stage)
	if u.a, err = newUDPSide("site-a", paths, tra); err != nil {
		return nil, err
	}
	if u.b, err = newUDPSide("site-b", paths, trb); err != nil {
		u.a.close()
		return nil, err
	}
	u.a.be.Do(func() {
		u.anchor = time.Now().Add(-time.Duration(u.a.be.Now()))
		u.a.sess.Dial(u.b.be.Addr())
	})
	for _, s := range []*udpSide{u.a, u.b} {
		select {
		case <-s.established:
		case err := <-s.sessErr:
			u.close()
			return nil, fmt.Errorf("session %s: %w", s.site, err)
		case <-time.After(10 * time.Second):
			u.close()
			return nil, fmt.Errorf("session %s: not established within 10 s", s.site)
		}
	}
	lap("core.establish_s")

	rng := rand.New(rand.NewSource(seed))
	u.pattern = make([]byte, 4096)
	for i := range u.pattern {
		u.pattern[i] = byte(rng.Intn(256))
	}
	src, dst := netip.MustParseAddr("fd00:aa::1"), netip.MustParseAddr("fd00:bb::1")
	for _, size := range []int{udpPacedInner, udpSatInner} {
		size := size
		u.tmpl[size] = innerPacket(size, src, dst, udpDataPort)
		u.sendFn[size] = func() {
			id := u.a.tr.begin(spanSend, u.curSeq)
			u.a.sw.SendToPeer(u.tmpl[size])
			u.a.tr.end(id)
		}
	}
	u.tokens = make(chan struct{}, 2*udpOutstanding) // never blocks the receiver: at most udpOutstanding are in flight
	u.b.be.Do(func() { u.b.sw.DeliverLocal = u.deliver })
	u.saturate(warmup, udpSatInner)
	lap("workload.populate_s")
	return u, nil
}

func (u *udpWorld) close() {
	u.lagOn.Store(false)
	u.a.close()
	if u.b != nil {
		u.b.close()
	}
}

// payloadFor returns the bytes packet seq carries after its 16-byte header.
func (u *udpWorld) payloadFor(seq uint64, n int) []byte {
	off := int(seq % 2039)
	return u.pattern[off : off+n]
}

// send stamps and sends one data packet of the given inner size.
func (u *udpWorld) send(size int, due time.Time) {
	t := u.tmpl[size]
	seq := u.nextSeq
	u.nextSeq++
	binary.BigEndian.PutUint64(t[48:56], seq)
	binary.BigEndian.PutUint64(t[56:64], uint64(due.Sub(u.epoch)))
	copy(t[64:], u.payloadFor(seq, size-64))
	u.curSeq = seq
	u.offered.Add(1)
	u.a.be.Do(u.sendFn[size])
}

// deliver is side b's DeliverLocal: it runs on b's event goroutine for
// every decapsulated inner packet, probes included.
func (u *udpWorld) deliver(inner []byte) {
	now := time.Now()
	if len(inner) < 64 || binary.BigEndian.Uint16(inner[42:44]) != udpDataPort {
		return // a probe's inner packet
	}
	seq := binary.BigEndian.Uint64(inner[48:56])
	id := u.b.tr.begin(spanSink, seq)
	defer u.b.tr.end(id)
	t, ok := u.tmpl[len(inner)]
	if !ok || !bytes.Equal(inner[:48], t[:48]) || !bytes.Equal(inner[64:], u.payloadFor(seq, len(inner)-64)) {
		u.corrupt.Add(1)
		return
	}
	word, bit := seq/64, uint64(1)<<(seq%64)
	for uint64(len(u.seen)) <= word {
		u.seen = append(u.seen, make([]uint64, 1<<12)...)
	}
	if u.seen[word]&bit != 0 {
		u.dups.Add(1)
		return
	}
	u.seen[word] |= bit
	u.got.Add(1)
	switch u.phase.Load() {
	case phasePaced:
		due := u.epoch.Add(time.Duration(binary.BigEndian.Uint64(inner[56:64])))
		if len(u.latency) < cap(u.latency) {
			u.latency = append(u.latency, float64(now.Sub(due).Nanoseconds())/1e3)
		}
	case phaseSaturate:
		select {
		case u.tokens <- struct{}{}:
		default:
		}
	}
}

// paced is the open-loop phase: one packet every 1/udpPacedPPS seconds,
// each stamped with the instant it was due, sent by one goroutine that
// spins on its own OS thread until that instant. It returns how late the
// generator ran, per packet, in µs.
func (u *udpWorld) paced(d time.Duration) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	interval := time.Second / udpPacedPPS
	n := int(d / interval)
	late := make([]float64, 0, n)
	u.b.be.Do(func() { u.latency = make([]float64, 0, n) })
	u.phase.Store(phasePaced)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		for time.Now().Before(due) {
		}
		behind := time.Since(due)
		if behind > udpMaxBehind {
			// The host took the generator's CPU away. Sending the missed
			// slots back to back would be a burst the schedule never
			// asked for, so they are skipped and counted, not offered.
			skip := int(behind / interval)
			u.skipped += uint64(skip)
			i += skip - 1
			continue
		}
		late = append(late, float64(behind.Nanoseconds())/1e3)
		u.send(udpPacedInner, due)
	}
	u.settle()
	u.phase.Store(phaseIdle)
	return late
}

// satResult is one stretch of the closed-loop phase, as a phaseResult
// (50 ms slices stand in for virtual seconds) plus the count of
// tokens the generator gave up waiting for.
type satResult struct {
	phaseResult
	timeouts uint64
}

// udpSlice is how often the saturate loop closes a slice.
const udpSlice = 50 * time.Millisecond

// saturate is the closed-loop phase: one generator goroutine keeps
// udpOutstanding packets in flight, blocking (not spinning) on a token the
// receiver returns per delivery.
func (u *udpWorld) saturate(d time.Duration, size int) satResult {
	for len(u.tokens) > 0 {
		<-u.tokens
	}
	for i := 0; i < udpOutstanding; i++ {
		u.tokens <- struct{}{}
	}
	u.phase.Store(phaseSaturate)
	timer := time.NewTimer(udpLossTimeout)
	defer timer.Stop()
	var res satResult
	got0, cpu0, start := u.got.Load(), cpuTime(), time.Now()
	sliceGot, sliceCPU, sliceStart := got0, cpu0, start
	deadline := start.Add(d)
	for n := 0; ; n++ {
		if n&15 == 0 {
			now := time.Now()
			if now.Sub(sliceStart) >= udpSlice || !now.Before(deadline) {
				got, cpu := u.got.Load(), cpuTime()
				if k := got - sliceGot; k > 0 {
					res.sliceNs = append(res.sliceNs, float64(now.Sub(sliceStart).Nanoseconds())/float64(k))
					res.sliceCPU = append(res.sliceCPU, float64((cpu-sliceCPU).Nanoseconds())/float64(k))
				}
				sliceGot, sliceCPU, sliceStart = got, cpu, now
			}
			if !now.Before(deadline) {
				break
			}
		}
		if !waitToken(u.tokens, timer) {
			res.timeouts++ // the packet this token stood for is gone; carry on without it
		}
		u.send(size, time.Now())
	}
	res.wall, res.cpu = time.Since(start), cpuTime()-cpu0
	res.counts.delivered = u.got.Load() - got0
	u.settle()
	u.phase.Store(phaseIdle)
	return res
}

// waitToken takes one token, blocking (on a reused timer, so the common
// case allocates nothing) for at most udpLossTimeout.
func waitToken(tokens chan struct{}, timer *time.Timer) bool {
	select {
	case <-tokens:
		return true
	default:
	}
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(udpLossTimeout)
	select {
	case <-tokens:
		return true
	case <-timer.C:
		return false
	}
}

// settle waits until everything offered has arrived, or 300 ms.
func (u *udpWorld) settle() {
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if u.got.Load()+u.corrupt.Load()+u.dups.Load() >= u.offered.Load() {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// startLagProbe arms a 1 ms timer chain on side a's run loop and records,
// at each fire, how far the wall clock had run past the event's instant.
func (u *udpWorld) startLagProbe() {
	u.lagOn.Store(true)
	var fire func()
	fire = func() {
		if !u.lagOn.Load() {
			return
		}
		if len(u.lag) < cap(u.lag) {
			u.lag = append(u.lag, float64((time.Since(u.anchor)-time.Duration(u.a.be.Now())).Nanoseconds())/1e3)
		}
		u.a.ep.Schedule(time.Millisecond, fire)
	}
	u.a.be.Do(func() {
		u.lag = make([]float64, 0, 1<<16)
		u.a.ep.Schedule(time.Millisecond, fire)
	})
}

// counts snapshots the exact counters of both sides in the shape the
// simulated workloads use: a frame written to a socket is a link
// traversal, and one that was written and never read is a network drop.
func (u *udpWorld) counts() simCounts {
	c := simCounts{sent: u.offered.Load(), delivered: u.got.Load()}
	var rx uint64
	for _, s := range []*udpSide{u.a, u.b} {
		s.be.Do(func() {
			st := s.be.Stats()
			c.lineTx += st.TxFrames
			rx += st.RxFrames
			c.encapped += s.sw.Stats.Encapped
			c.decapped += s.sw.Stats.Decapped
			c.ingests += s.mon.Samples
			c.decisions += s.ctl.Stats.Decisions
			for _, t := range s.sw.Tunnels() {
				c.probes += t.Stats.ProbeSent
			}
		})
	}
	if c.lineTx > rx {
		c.netDrops = c.lineTx - rx
	}
	return c
}

// runUDP runs udp_loopback once: a paced phase and a saturate phase of
// `seconds` each.
func runUDP(seed int64, seconds int, trace bool, spec *Spec, size sizing) (*Run, error) {
	r := &Run{Workload: wlUDP, Seed: seed, Seconds: seconds, Trace: trace, Counts: map[string]float64{}}
	phaseLen := time.Duration(seconds) * size.udpPhase
	values := map[string]float64{}

	var micros map[string]microResult
	var ts *tracerSet
	if trace {
		var err error
		if micros, err = runMicros(size); err != nil {
			return nil, err
		}
		r.Micros = micros
		ts = newTracerSet(2)
	}

	reps := size.setupReps
	if trace {
		reps = 1
	}
	var u *udpWorld
	var setups []float64
	for i := 0; i < reps; i++ {
		if u != nil {
			u.close()
		}
		t0 := time.Now()
		var err error
		if u, err = newUDPWorld(seed, size.udpWarmup, ts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer u.close()
	warm, warmGot := u.offered.Load(), u.got.Load()

	if trace {
		u.startLagProbe()
	}
	late := u.paced(phaseLen)
	u.lagOn.Store(false)
	sort.Float64s(late)
	genLateP99 := percentile(late, 0.99)
	pacedOK := genLateP99 < 100
	pacedOffered, pacedGot := u.offered.Load()-warm, u.got.Load()-warmGot
	r.Counts["paced_offered"] = float64(pacedOffered)
	r.Counts["paced_delivered"] = float64(pacedGot)
	r.Counts["paced_valid"] = 0
	if pacedOK {
		r.Counts["paced_valid"] = 1
	}
	r.Counts["gen_late_p99_us"] = genLateP99
	r.Counts["paced_skipped"] = float64(u.skipped)

	var sat satResult
	if !trace {
		sat = u.saturate(phaseLen, udpSatInner)
	} else {
		var err error
		if sat, err = u.tracedSaturate(r, phaseLen, ts, micros, values); err != nil {
			return nil, err
		}
		var lat []float64
		u.b.be.Do(func() { lat = append(lat, u.latency...) })
		sort.Float64s(lat)
		values["udp.added_latency_p50_us"] = percentile(lat, 0.50)
		values["udp.added_latency_p99_us"] = percentile(lat, 0.99)
		r.Counts["latency_samples"] = float64(len(lat))
		var lag []float64
		u.a.be.Do(func() { lag = append(lag, u.lag...) })
		sort.Float64s(lag)
		values["udp.runloop_lag_us_p50"] = percentile(lag, 0.50)
		values["udp.runloop_lag_us_p99"] = percentile(lag, 0.99)
		r.Counts["runloop_lag_samples"] = float64(len(lag))
		values["benchmark.gen_late_p99_us"] = genLateP99
		small := u.saturate(phaseLen/3, udpPacedInner)
		values["udp.pps_64"] = 1e9 / small.nsPerPkt()
	}

	final := u.counts()
	offered, got := u.offered.Load(), u.got.Load()
	// attempted and failed are the operations of the closed-loop phases,
	// where a packet can only go missing through a fault of the program.
	// The open-loop paced phase loses packets whenever the host stalls the
	// receiver for longer than its socket buffer holds 20 000 pps (about
	// 13 ms), which this host does; that loss is in delivered_share and
	// udp.rx_drop_share, which cover everything offered.
	r.Attempted = offered - pacedOffered
	r.Failed = r.Attempted - (got - pacedGot)
	r.check("delivered bytes identical to sent", u.corrupt.Load() == 0, "%d of %d delivered packets differ", u.corrupt.Load(), got)
	r.check("no duplicate deliveries", u.dups.Load() == 0, "%d duplicates", u.dups.Load())
	for _, s := range []*udpSide{u.a, u.b} {
		var samples, frames uint64
		s.be.Do(func() { samples, frames = s.mon.Samples, s.be.Stats().RxFrames })
		r.check("OWD measurements == frames received at "+s.site, samples == frames,
			"%d measurements, %d frames", samples, frames)
	}
	r.check("traffic flowed in the saturate phase", sat.counts.delivered > 0, "%d delivered, %d token timeouts", sat.counts.delivered, sat.timeouts)
	lateNote := "valid"
	if !pacedOK {
		lateNote = "INVALID: the generator could not hold its schedule; paced-phase latency figures of this run mean nothing"
	}
	r.check("paced phase: generator lateness p99 under 100 us (marks the phase, does not fail the run)", true,
		"p99 %.1f us over %d packets: %s", genLateP99, len(late), lateNote)

	if !trace {
		values["setup_s"] = fastDecile(setups)
		values["pkts_per_s"] = 1e9 / sat.nsPerPkt()
		values["cpu_us_per_pkt"] = sat.cpuPerPkt() / 1e3
		values["peak_rss_mb"] = peakRSSMiB()
		values["delivered_share"] = float64(got) / float64(offered)
		r.SliceNs = sat.sliceNs
		if err := r.setMetrics(spec.EndToEnd, values); err != nil {
			return nil, err
		}
	} else {
		for stage, s := range u.stage {
			values[stage] = s
		}
		if final.lineTx > 0 {
			values["udp.rx_drop_share"] = float64(final.netDrops) / float64(final.lineTx)
		}
		values["obs.scrape_us"] = scrapeMicros(u.a.reg)
		raw, err := rawUDPPPS(phaseLen/3, len(benchOuter(benchInner(udpSatInner))))
		if err != nil {
			return nil, err
		}
		values["udp.raw_pps"] = raw
		values["udp.frac_of_raw"] = r.Counts["plain_pps"] / raw
		r.Counts["setup_s"] = setups[0]
		fillAbsent(values, spec.PerLayer)
		if err := r.setMetrics(spec.PerLayer, values); err != nil {
			return nil, err
		}
	}
	r.Counts["saturate_delivered"] = float64(sat.counts.delivered)
	r.Counts["token_timeouts"] = float64(sat.timeouts)
	r.Counts["offered"] = float64(offered)
	r.Counts["delivered"] = float64(got)
	r.finish()
	return r, nil
}

// tracedSaturate is the saturate phase of a traced run, in the same three
// parts as a simulated window: plain, profiled, spans on.
func (u *udpWorld) tracedSaturate(r *Run, d time.Duration, ts *tracerSet,
	micros map[string]microResult, values map[string]float64) (satResult, error) {

	quarter := d / 4
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := u.counts()
	plain := u.saturate(quarter, udpSatInner)
	c := u.counts().sub(c0)
	c.delivered = plain.counts.delivered // what the slices counted, not what settled afterwards
	runtime.ReadMemStats(&ms1)
	if plain.counts.delivered == 0 {
		return plain, fmt.Errorf("udp_loopback delivered nothing in the plain part of its saturate phase")
	}

	var profiled satResult
	prof, err := profileWindow(func() { profiled = u.saturate(d/2, udpSatInner) })
	if err != nil {
		return plain, err
	}
	if profiled.counts.delivered == 0 {
		return plain, fmt.Errorf("udp_loopback delivered nothing in the profiled part of its saturate phase")
	}

	for _, s := range []*udpSide{u.a, u.b} {
		s := s
		s.be.Do(func() { s.tr.on = true })
	}
	spanned := u.saturate(quarter, udpSatInner)
	for _, s := range []*udpSide{u.a, u.b} {
		s := s
		s.be.Do(func() { s.tr.on = false })
	}

	r.Counts["plain_pps"] = 1e9 / plain.nsPerPkt()
	values["dataplane.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(plain.counts.delivered)
	values["benchmark.trace_overhead_share"] = spanned.nsPerPkt()/plain.nsPerPkt() - 1
	values["simnet.hops_per_pkt"] = float64(c.lineTx) / float64(c.delivered) // socket hops, probes included
	for name, m := range micros {
		values[name] = m.Median
	}

	// There is no micro for the receive side of the runtime (read syscall,
	// lock hand-off, run-loop wake-up), so its cost shows as model gap.
	model := append(stackModelRows("1k", c, micros),
		modelRow("udp", "Do + route + write syscall", float64(c.lineTx)/float64(c.delivered), micros["udp.inject_ns"].Median))
	sheet := buildCostSheet(wlUDP, 2, plain.phaseResult, profiled.phaseResult, spanned.phaseResult, prof, ts, model)
	r.CostSheet = sheet
	sheet.fill(values)
	r.Counts["profile_overhead_share"] = profiled.nsPerPkt()/plain.nsPerPkt() - 1
	if err := ts.writeJSON(traceFile(wlUDP)); err != nil {
		return plain, fmt.Errorf("trace.json: %w", err)
	}
	total := satResult{
		phaseResult: addPhase(addPhase(plain.phaseResult, profiled.phaseResult), spanned.phaseResult),
		timeouts:    plain.timeouts + profiled.timeouts + spanned.timeouts,
	}
	return total, nil
}

// rawUDPPPS is the baseline udp.frac_of_raw divides by: two bare sockets
// on the same host in the same run, the same datagram size, the same
// closed loop of udpOutstanding datagrams, one sending and one receiving
// goroutine — everything the saturate phase has except Tango.
func rawUDPPPS(d time.Duration, size int) (float64, error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	rx, err := net.ListenUDP("udp", lo)
	if err != nil {
		return 0, err
	}
	defer rx.Close()
	tx, err := net.ListenUDP("udp", lo)
	if err != nil {
		return 0, err
	}
	defer tx.Close()
	to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	tokens := make(chan struct{}, 2*udpOutstanding)
	for i := 0; i < udpOutstanding; i++ {
		tokens <- struct{}{}
	}
	var got atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			if _, _, err := rx.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
			got.Add(1)
			select {
			case tokens <- struct{}{}:
			default:
			}
		}
	}()
	payload := make([]byte, size)
	timer := time.NewTimer(udpLossTimeout)
	defer timer.Stop()
	start := time.Now()
	deadline := start.Add(d)
	for n := 0; ; n++ {
		if n&15 == 0 && !time.Now().Before(deadline) {
			break
		}
		waitToken(tokens, timer)
		if _, err := tx.WriteToUDPAddrPort(payload, to); err != nil {
			rx.Close()
			<-done
			return 0, err
		}
	}
	wall := time.Since(start)
	n := got.Load()
	rx.Close()
	<-done
	return float64(n) / wall.Seconds(), nil
}
