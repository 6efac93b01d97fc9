// Command tangod is one Tango endpoint: a border switch and its
// controller (the paper's Figure 2) on a real UDP socket. It runs
// core.Edge — the same switch / monitor / controller / reporter / prober
// stack the simulator runs — on the wall clock. Two tangod processes,
// one per site, handshake, probe every path and steer on live one-way
// delays over loopback or a LAN.
//
// Usage:
//
//	tangod [-site site-a] [-listen 127.0.0.1:0] [-peer HOST:PORT]
//	       [-paths NTT:12ms,GTT:30ms,Cogent:20ms]
//	       [-policy min-delay|min-jitter|static] [-metrics :9090]
//	       [-duration 0] [-addr-file F] [-status-every 2s]
//
// The edge starts with core.LiveEdgeConfig and probes at
// core.LiveProbeEvery, as the E8-live simulated reference does.
//
// With -metrics, tangod serves GET /metrics (a Prometheus text scrape of
// every registered instrument), GET /trace?n=100 (a JSON tail of the
// trace journal) and GET /readyz, which answers 503 until the peer
// handshake has completed and 200 after.
package main

import (
	"encoding/json"
	"flag"
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

func main() { os.Exit(run()) }

// run binds, handshakes, steers and reports until SIGINT/SIGTERM or
// -duration, and returns the exit code.
func run() int {
	var (
		site     = flag.String("site", "site-a", "site name (labels metrics, derives outer addresses)")
		listen   = flag.String("listen", "127.0.0.1:0", "UDP bind address")
		peer     = flag.String("peer", "", "peer socket address to dial; empty waits for a dialer")
		pathSpec = flag.String("paths", "NTT:12ms,GTT:30ms,Cogent:20ms", "outgoing paths as NAME:DELAY,... (emulated one-way delays)")
		policy   = flag.String("policy", "min-delay", "path policy: min-delay, min-jitter, static")
		metrics  = flag.String("metrics", "", "serve /metrics, /trace and /readyz on this address (e.g. :9090)")
		duration = flag.Duration("duration", 0, "wall-clock run time; 0 runs until SIGINT/SIGTERM")
		addrFile = flag.String("addr-file", "", "write the bound UDP and HTTP addresses to this file as JSON")
		statusIv = flag.Duration("status-every", 2*time.Second, "wall-clock time between status prints")
	)
	flag.Parse()
	if err := checkCadences(*statusIv); err != nil {
		fmt.Fprintln(os.Stderr, "tangod:", err)
		return 2
	}
	paths, err := udp.ParsePaths(*pathSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pol, err := livePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	reg := obs.NewRegistry()
	j := obs.NewJournal(4096)
	b, err := udp.New(udp.Config{Name: *site, Listen: *listen, Registry: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer b.Close()

	edge := core.NewEdge(b, b.Eng())
	edge.Instrument(reg, j, *site)

	// The handshake provisions everything: tunnels toward the peer's
	// endpoints, local endpoint ownership, and the measurement loop.
	// OnEstablished runs on the event goroutine, so core.Edge wires here
	// exactly as it does single-threaded in the simulator.
	established := make(chan struct{})
	sess := udp.NewSession(b, *site, paths)
	sess.OnEstablished = func(p *udp.Peer) {
		for _, ep := range sess.Endpoints() {
			b.AddAddr(ep)
		}
		edge.Start(core.LiveEdgeConfig(sess.SwitchAddr(), pathNames(paths), p.Endpoints, pathNames(p.Paths), pol))
		edge.Probe(sess.SwitchAddr(), p.SwitchAddr, core.LiveProbeEvery)
		close(established)
	}
	sess.OnError = func(err error) { fmt.Fprintf(os.Stderr, "tangod: session: %v\n", err) }

	b.Start()
	fmt.Printf("tangod: %s listening on %s (%d paths: %s)\n", *site, b.Addr(), len(paths), *pathSpec)

	metricsAddr := ""
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		metricsAddr = ln.Addr().String()
		srv := &http.Server{Handler: handler(reg, j, established)}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		defer srv.Close()
		fmt.Printf("tangod: serving /metrics, /trace and /readyz on %s\n", metricsAddr)
	}

	if *addrFile != "" {
		// JSON so harnesses learn both bound ports from one poll; written
		// then renamed, so a polling reader never sees a partial file.
		blob, err := json.Marshal(map[string]string{"udp": b.Addr().String(), "metrics": metricsAddr})
		if err != nil {
			panic(err)
		}
		tmp := *addrFile + ".tmp"
		err = os.WriteFile(tmp, blob, 0o644)
		if err == nil {
			err = os.Rename(tmp, *addrFile)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if *peer != "" {
		ua, err := net.ResolveUDPAddr("udp", *peer)
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

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	var until <-chan time.Time
	if *duration > 0 {
		until = time.After(*duration)
	}
	status := time.NewTicker(*statusIv)
	defer status.Stop()
loop:
	for {
		select {
		case <-status.C:
			b.Do(func() { printStatus(b, edge) })
		case s := <-sigc:
			fmt.Printf("tangod: %v, shutting down\n", s)
			break loop
		case <-until:
			break loop
		}
	}

	b.Do(func() {
		edge.Prober.Stop()
		edge.Reporter.Stop()
		edge.Controller.Stop()
		printStatus(b, edge)
	})
	return 0
}

// handler serves obs.Handler plus /readyz, which answers 503 until
// established is closed and 200 after.
func handler(reg *obs.Registry, j *obs.Journal, established <-chan struct{}) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(reg, j))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-established:
			fmt.Fprintln(w, "ready")
		default:
			http.Error(w, "not established", http.StatusServiceUnavailable)
		}
	})
	return mux
}

// checkCadences rejects a -status-every a run cannot survive: a ticker
// panics on a non-positive period. The edge's own cadences come from
// core.LiveEdgeConfig.
func checkCadences(status time.Duration) error {
	if status <= 0 {
		return fmt.Errorf("-status-every must be positive, got %v", status)
	}
	return nil
}

// pathNames lists the names of specs in order.
func pathNames(specs []udp.PathSpec) []string {
	names := make([]string, len(specs))
	for i, ps := range specs {
		names[i] = ps.Name
	}
	return names
}

// livePolicy builds the steering policy. The dwell and staleness
// constants are wall-clock scaled: loopback deployments converge in
// hundreds of milliseconds, not simulated minutes.
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

// printStatus prints the live stack's traffic and estimates; it runs
// inside b.Do, under the event lock.
func printStatus(b *udp.Backend, e *core.Edge) {
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
