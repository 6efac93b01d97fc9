package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/obs"
	"tango/internal/transport/udp"
)

// liveOptions parameterizes -transport udp: one tangod process is one
// Tango endpoint on a real UDP socket, running core.Edge — the same
// switch / monitor / controller / reporter / prober stack the simulator
// runs — so only the transport backend and the meaning of "now" differ.
type liveOptions struct {
	Site    string // site name (labels metrics, derives outer addresses)
	Listen  string // UDP bind address
	Peer    string // peer socket address to dial; empty = listen for a dialer
	Paths   string // outgoing path spec, e.g. "NTT:12ms,GTT:30ms,Cogent:20ms"
	Policy  string // min-delay | min-jitter | static
	Metrics string // HTTP address for /metrics and /trace; empty disables

	ProbeInterval time.Duration
	ReportEvery   time.Duration
	DecideEvery   time.Duration
	Duration      time.Duration // wall-clock run time; 0 = until signal

	AddrFile  string // write the bound socket address here (port discovery)
	ReadyFile string // write "ready" here once the pair is established
	Status    time.Duration
}

// livePolicy builds the steering policy for live operation. The dwell
// and staleness constants are wall-clock scaled: loopback deployments
// converge in hundreds of milliseconds, not simulated minutes.
func livePolicy(name string) (control.Policy, error) {
	switch name {
	case "min-delay":
		return core.LiveMinDelay(), nil
	case "min-jitter":
		return &control.MinJitter{MinDwell: 300 * time.Millisecond, StaleAfter: 5 * time.Second}, nil
	case "static":
		return &control.Static{ID: 1}, nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// runLive is tangod's -transport udp main: bind, handshake, steer,
// report, shut down cleanly on signal or after -duration.
func runLive(o liveOptions) int {
	paths, err := udp.ParsePaths(o.Paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pol, err := livePolicy(o.Policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	reg := obs.NewRegistry()
	j := obs.NewJournal(4096)
	b, err := udp.New(udp.Config{Name: o.Site, Listen: o.Listen, Registry: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer b.Close()

	edge := core.NewEdge(b, b.Eng())
	edge.Instrument(reg, j, o.Site)

	// The handshake provisions everything: tunnels toward the peer's
	// endpoints, local endpoint ownership, and the measurement loop.
	// OnEstablished runs on the event goroutine, so core.Edge wires here
	// exactly as it does single-threaded in the simulator.
	established := make(chan struct{})
	sess := udp.NewSession(b, o.Site, paths)
	sess.OnEstablished = func(p *udp.Peer) {
		for _, ep := range sess.Endpoints() {
			b.AddAddr(ep)
		}
		cfg := core.EdgeConfig{
			Local:        sess.SwitchAddr(),
			Policy:       pol,
			DecideEvery:  o.DecideEvery,
			ReportEvery:  o.ReportEvery,
			ReportMaxAge: 5 * o.ReportEvery,
		}
		for i, ps := range paths {
			cfg.Paths = append(cfg.Paths, core.EdgePath{Name: ps.Name, Remote: p.Endpoints[i]})
		}
		for _, ps := range p.Paths {
			cfg.PeerPaths = append(cfg.PeerPaths, ps.Name)
		}
		edge.Start(cfg)
		edge.Probe(sess.SwitchAddr(), p.SwitchAddr, o.ProbeInterval)
		close(established)
	}
	sess.OnError = func(err error) { fmt.Fprintf(os.Stderr, "tangod: session: %v\n", err) }

	b.Start()
	fmt.Printf("tangod: %s listening on %s (%d paths: %s)\n", o.Site, b.Addr(), len(paths), o.Paths)

	var srv *http.Server
	metricsAddr := ""
	if o.Metrics != "" {
		ln, err := net.Listen("tcp", o.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		metricsAddr = ln.Addr().String()
		srv = &http.Server{Handler: obs.Handler(reg, j)}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		defer srv.Close()
		fmt.Printf("tangod: serving /metrics and /trace on %s\n", metricsAddr)
	}

	if o.AddrFile != "" {
		// JSON so harnesses learn both bound ports from one poll.
		blob, err := json.Marshal(map[string]string{"udp": b.Addr().String(), "metrics": metricsAddr})
		if err != nil {
			panic(err)
		}
		if err := writeFileAtomic(o.AddrFile, string(blob)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if o.Peer != "" {
		ua, err := net.ResolveUDPAddr("udp", o.Peer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// Unmap 4-in-6 so the address family matches an IPv4-bound socket.
		ap := netip.AddrPortFrom(ua.AddrPort().Addr().Unmap(), ua.AddrPort().Port())
		b.Do(func() { sess.Dial(ap) })
	}

	select {
	case <-established:
	case <-time.After(30 * time.Second):
		fmt.Fprintln(os.Stderr, "tangod: no peer established within 30s")
		return 1
	}
	fmt.Printf("tangod: established with %q\n", sess.Peer().Site)
	if o.ReadyFile != "" {
		if err := writeFileAtomic(o.ReadyFile, "ready"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	var until <-chan time.Time
	if o.Duration > 0 {
		until = time.After(o.Duration)
	}
	status := time.NewTicker(o.Status)
	defer status.Stop()
loop:
	for {
		select {
		case <-status.C:
			printLiveStatus(b, edge)
		case s := <-sigc:
			fmt.Printf("tangod: %v, shutting down\n", s)
			break loop
		case <-until:
			break loop
		}
	}

	b.Do(func() {
		edge.Prober.Stop()
		if edge.Reporter != nil { // -report-every 0 never started one
			edge.Reporter.Stop()
		}
		edge.Controller.Stop()
		printLiveStatusLocked(b, edge)
	})
	return 0
}

// printLiveStatus snapshots the live stack under the event lock.
func printLiveStatus(b *udp.Backend, e *core.Edge) {
	b.Do(func() { printLiveStatusLocked(b, e) })
}

// printLiveStatusLocked is printLiveStatus inside an existing Do.
func printLiveStatusLocked(b *udp.Backend, e *core.Edge) {
	ctl, mon := e.Controller, e.Monitor
	st := b.Stats()
	fmt.Printf("%9v  tx %d rx %d frames; current path %d\n",
		time.Duration(b.Now()).Round(time.Second), st.TxFrames, st.RxFrames, ctl.Current())
	for _, e := range ctl.Estimates() {
		if !e.Valid {
			continue
		}
		fmt.Printf("            -> path %d  owd %9.3f ms  jitter %7.4f ms  n=%d (receiver clock domain)\n",
			e.ID, e.OWDMs, e.JitterMs, e.Samples)
	}
	for _, pm := range mon.Paths() {
		fmt.Printf("            <- %-7s mean %9.3f ms  n=%d\n", pm.Name, pm.Est.Value(), pm.OWD.N())
	}
}

// writeFileAtomic writes content and renames into place, so a polling
// reader never observes a partial file.
func writeFileAtomic(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
