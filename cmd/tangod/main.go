// Command tangod runs a long-lived simulated Tango deployment and streams
// per-path statistics, like watching the paper's prototype live. Optional
// incidents can be scheduled to watch the controller react.
//
// Usage:
//
//	tangod [-seed N] [-hours 2] [-report 5m] [-policy min-delay|min-jitter|static]
//	       [-event none|route-shift|instability] [-event-at 1h]
//	       [-metrics :9090]
//
// With -metrics, tangod serves live observability over real HTTP while
// virtual time runs: GET /metrics is a Prometheus text scrape of every
// registered counter, gauge and histogram, and GET /trace?n=100 is a
// JSON tail of the structured trace journal (path switches, queue
// drops). All instruments are atomic, so scrapes never block the event
// loop.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"tango"
	"tango/internal/core"
	"tango/internal/obs"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "random seed")
		hours   = flag.Float64("hours", 2, "virtual hours to run")
		report  = flag.Duration("report", 10*time.Minute, "virtual time between status reports")
		policy  = flag.String("policy", "min-delay", "path policy: min-delay, min-jitter, static")
		event   = flag.String("event", "none", "incident to inject on GTT NY->LA: none, route-shift, instability")
		eventAt = flag.Duration("event-at", time.Hour, "virtual time of the incident")
		metrics = flag.String("metrics", "", "serve Prometheus /metrics and JSON /trace on this address (e.g. :9090)")

		// -transport udp runs one real endpoint on a UDP socket instead
		// of the whole simulated deployment; see live.go.
		transport = flag.String("transport", "sim", "transport backend: sim (whole deployment, virtual time) or udp (one endpoint, real socket, wall time)")
		site      = flag.String("site", "site-a", "udp: site name (labels metrics, derives outer addresses)")
		listen    = flag.String("listen", "127.0.0.1:0", "udp: UDP bind address")
		peer      = flag.String("peer", "", "udp: peer socket address to dial; empty waits for a dialer")
		paths     = flag.String("paths", "NTT:12ms,GTT:30ms,Cogent:20ms", "udp: outgoing paths as NAME:DELAY,... (emulated one-way delays)")
		probeIv   = flag.Duration("probe-interval", core.LiveProbeEvery, "udp: probe send interval per path")
		reportIv  = flag.Duration("report-every", core.LiveReportEvery, "udp: piggybacked report interval; 0 turns reports off")
		decideIv  = flag.Duration("decide-every", core.LiveDecideEvery, "udp: controller decision interval; 0 leaves the controller idle")
		duration  = flag.Duration("duration", 0, "udp: wall-clock run time; 0 runs until SIGINT/SIGTERM")
		addrFile  = flag.String("addr-file", "", "udp: write the bound socket address to this file")
		readyFile = flag.String("ready-file", "", "udp: write to this file once the pair is established")
		statusIv  = flag.Duration("status-every", 2*time.Second, "udp: wall-clock time between status prints")
	)
	flag.Parse()
	if err := checkCadences(cadences{
		Hours: *hours, Report: *report, Probe: *probeIv, Status: *statusIv,
		ReportEvery: *reportIv, DecideEvery: *decideIv,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tangod:", err)
		os.Exit(2)
	}

	switch *transport {
	case "udp":
		os.Exit(runLive(liveOptions{
			Site: *site, Listen: *listen, Peer: *peer, Paths: *paths,
			Policy: *policy, Metrics: *metrics,
			ProbeInterval: *probeIv, ReportEvery: *reportIv, DecideEvery: *decideIv,
			Duration: *duration, AddrFile: *addrFile, ReadyFile: *readyFile, Status: *statusIv,
		}))
	case "sim":
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q\n", *transport)
		os.Exit(2)
	}

	var pol tango.Policy
	switch *policy {
	case "min-delay":
		pol = tango.PolicyMinDelay
	case "min-jitter":
		pol = tango.PolicyMinJitter
	case "static":
		pol = tango.PolicyStaticDefault
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}

	lab := tango.NewLab(tango.Options{Seed: *seed, PolicyNY: pol, PolicyLA: pol})
	fmt.Println("tangod: establishing (discovery, pinned prefixes, tunnels)...")
	if err := lab.Establish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, s := range []*tango.Site{lab.NY(), lab.LA()} {
		s := s
		s.OnPathSwitch(func(at time.Duration, from, to string) {
			fmt.Printf("%9v  %s: controller switched %s -> %s\n", at.Round(time.Second), s.Name(), from, to)
		})
	}

	if *metrics != "" {
		reg := obs.NewRegistry()
		j := obs.NewJournal(4096)
		must(lab.Instrument(reg, j))
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: obs.Handler(reg, j)}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		defer srv.Close()
		fmt.Printf("tangod: serving /metrics and /trace on %s\n", ln.Addr())
	}

	switch *event {
	case "route-shift":
		must(lab.InjectRouteShift("GTT", tango.NYtoLA, *eventAt, 10*time.Minute, 5*time.Millisecond))
		fmt.Printf("scheduled: GTT NY->LA +5ms internal route change at +%v for 10m\n", *eventAt)
	case "instability":
		must(lab.InjectInstability("GTT", tango.NYtoLA, *eventAt, 5*time.Minute, 0.05, 48*time.Millisecond))
		fmt.Printf("scheduled: GTT NY->LA instability window at +%v for 5m\n", *eventAt)
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "unknown event %q\n", *event)
		os.Exit(2)
	}

	total := time.Duration(*hours * float64(time.Hour))
	for elapsed := time.Duration(0); elapsed < total; elapsed += *report {
		step := *report
		if total-elapsed < step {
			step = total - elapsed
		}
		lab.Run(step)
		printStatus(lab)
	}
	fmt.Println("tangod: done")
}

// cadences are the flag values that pace a run.
type cadences struct {
	Hours                    float64
	Report, Probe, Status    time.Duration
	ReportEvery, DecideEvery time.Duration
}

// checkCadences rejects values a run cannot survive: the status loop
// never advances on a non-positive -report, and a ticker panics on a
// non-positive period. Zero -report-every and -decide-every are legal —
// core.Edge leaves that loop off.
func checkCadences(c cadences) error {
	switch {
	case !(c.Hours > 0): // NaN included
		return fmt.Errorf("-hours must be positive, got %v", c.Hours)
	case c.Report <= 0:
		return fmt.Errorf("-report must be positive, got %v", c.Report)
	case c.Probe <= 0:
		return fmt.Errorf("-probe-interval must be positive, got %v", c.Probe)
	case c.Status <= 0:
		return fmt.Errorf("-status-every must be positive, got %v", c.Status)
	case c.ReportEvery < 0:
		return fmt.Errorf("-report-every must not be negative, got %v", c.ReportEvery)
	case c.DecideEvery < 0:
		return fmt.Errorf("-decide-every must not be negative, got %v", c.DecideEvery)
	}
	return nil
}

func printStatus(lab *tango.Lab) {
	fmt.Printf("%9v  status:\n", lab.Now().Round(time.Second))
	for _, s := range []*tango.Site{lab.NY(), lab.LA()} {
		fmt.Printf("           %s outgoing (measured at peer, raw clock domain):\n", s.Name())
		for _, p := range s.Paths() {
			mark := " "
			if p.Current {
				mark = "*"
			}
			fmt.Printf("            %s %-7s mean %9.3f ms  min %9.3f ms  jitter %7.4f ms  loss %5.3f%%  n=%d\n",
				mark, p.Provider, p.MeanOWDMs, p.MinOWDMs, p.JitterMs, p.LossRate*100, p.Samples)
		}
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
