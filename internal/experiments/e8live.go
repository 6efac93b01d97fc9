package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tango/internal/addr"
	"tango/internal/core"
	"tango/internal/simnet"
	"tango/internal/transport/udp"
)

// E8-live is the transport-parity experiment: the identical probe /
// report / decide stack runs once on the simulated transport and once as
// two real tangod processes exchanging UDP datagrams over loopback, on
// the same emulated delay table — and must converge to the same paths.
//
// The delay table is asymmetric on purpose (the paper's measured
// one-way delays are): the best a->b path is not the best b->a path, so
// a run that only got one direction right fails the check.
var (
	// livePathNames label the three emulated providers, path IDs 1..3.
	livePathNames = []string{"NTT", "GTT", "Cogent"}
	// liveDelaysA are site-a's outgoing one-way delays by path.
	liveDelaysA = []time.Duration{30 * time.Millisecond, 12 * time.Millisecond, 20 * time.Millisecond}
	// liveDelaysB are site-b's outgoing one-way delays by path.
	liveDelaysB = []time.Duration{18 * time.Millisecond, 25 * time.Millisecond, 9 * time.Millisecond}
)

// Expected steady-state choices: a's fastest outgoing path is GTT (2),
// b's is Cogent (3).
const (
	liveWantA = 2
	liveWantB = 3
)

// LivePathSpecA and LivePathSpecB render the table as tangod -paths
// flag values, so harness and experiment cannot drift apart.
func LivePathSpecA() string { return livePathSpec(liveDelaysA) }
func LivePathSpecB() string { return livePathSpec(liveDelaysB) }

func livePathSpec(delays []time.Duration) string {
	parts := make([]string, len(delays))
	for i, d := range delays {
		parts[i] = fmt.Sprintf("%s:%s", livePathNames[i], d)
	}
	return strings.Join(parts, ",")
}

// liveRunFor is the simulated reference's default run; its cadences and
// policy are core's live edge, tangod's defaults.
const liveRunFor = 5 * time.Second

// E8LiveSim runs the E8-live scenario on the simulated transport: two
// nodes joined by one link per provider path, each direction delayed by
// the same table the loopback harness hands tangod. It is the reference
// answer the two-process run is compared against.
func E8LiveSim(cfg Config) *Result {
	r := newResult("E8-live", "Transport parity: simulated reference for the loopback deployment")

	w := simnet.New(cfg.Seed + 1)
	na := w.AddNode("site-a", 0)
	nb := w.AddNode("site-b", 0)
	links := make([]*simnet.Link, len(livePathNames))
	for i := range livePathNames {
		links[i] = w.Connect(na, nb, simnet.FixedDelay(liveDelaysA[i]), simnet.FixedDelay(liveDelaysB[i]))
	}

	// Addressing is udp.SiteAddrs — the exact scheme the live session
	// handshake derives — so the two transports move byte-identical
	// outer headers.
	swA, epA := udp.SiteAddrs("site-a", len(livePathNames))
	swB, epB := udp.SiteAddrs("site-b", len(livePathNames))

	wire := func(local *simnet.Node, localSw netip.Addr, peerEPs, ownEPs []netip.Addr) *core.Edge {
		for _, ep := range ownEPs {
			local.AddAddr(ep)
		}
		e := core.NewEdge(local, local.Eng())
		e.Start(core.LiveEdgeConfig(localSw, livePathNames, peerEPs, livePathNames, core.LiveMinDelay()))
		return e
	}

	a := wire(na, swA, epB, epA)
	b := wire(nb, swB, epA, epB)

	// Each endpoint address is pinned to its provider's link, the role
	// the live backend's route table plays.
	for i := range livePathNames {
		na.SetRoute(host128(epB[i]), links[i].PortA())
		nb.SetRoute(host128(epA[i]), links[i].PortB())
	}

	a.Probe(swA, swB, core.LiveProbeEvery)
	b.Probe(swB, swA, core.LiveProbeEvery)

	runFor := cfg.dur(liveRunFor)
	w.Run(w.Now() + runFor)
	r.VirtualTime = runFor

	r.check("a converges to min-delay path", fmt.Sprintf("GTT (path %d)", liveWantA),
		a.Controller.Current() == liveWantA, "path %d", a.Controller.Current())
	r.check("b converges to min-delay path", fmt.Sprintf("Cogent (path %d)", liveWantB),
		b.Controller.Current() == liveWantB, "path %d", b.Controller.Current())

	r.Rows = append(r.Rows, []string{"site", "path", "provider", "emulated OWD", "estimate (ms)"})
	for _, s := range []*core.Edge{a, b} {
		delays := liveDelaysA
		site := "site-a"
		if s == b {
			delays = liveDelaysB
			site = "site-b"
		}
		for _, e := range s.Controller.Estimates() {
			if !e.Valid {
				continue
			}
			r.Rows = append(r.Rows, []string{
				site, strconv.Itoa(int(e.ID)), livePathNames[e.ID-1],
				delays[e.ID-1].String(), fmt.Sprintf("%.3f", e.OWDMs),
			})
		}
	}
	r.note("expected convergence: site-a -> path %d, site-b -> path %d; the loopback harness (RunE8Loopback) must match", liveWantA, liveWantB)
	return r
}

// host128 builds the /128 FIB prefix pinning one endpoint address to
// its provider's link.
func host128(ip netip.Addr) addr.Prefix {
	p, err := addr.PrefixFrom(ip, 128)
	if err != nil {
		panic(err)
	}
	return p
}

// LoopbackReport is the outcome of one two-process loopback run.
type LoopbackReport struct {
	PathA, PathB int           // converged current-path IDs per site
	ConvergedIn  time.Duration // wall time from both-ready to both-converged
	// Final holds each site's last /metrics scrape (site-a, site-b),
	// taken after convergence and before teardown.
	Final [2]map[string]float64
}

// LoopbackConfig parameterizes RunE8Loopback.
type LoopbackConfig struct {
	// Tangod is the path to a built tangod binary.
	Tangod string
	// ArtifactDir, when set, receives process logs and final /metrics
	// scrapes (a.log, b.log, a_metrics.prom, b_metrics.prom).
	ArtifactDir string
}

// loopbackTimeout bounds a whole RunE8Loopback run.
const loopbackTimeout = 90 * time.Second

// RunE8Loopback launches two tangod processes over 127.0.0.1 on the
// E8-live delay table, waits for both controllers to converge on the
// paths of the simulated reference (an error if they do not before the
// timeout), takes a final /metrics scrape of each, and tears both
// processes down.
func RunE8Loopback(cfg LoopbackConfig) (*LoopbackReport, error) {
	deadline := time.Now().Add(loopbackTimeout)

	dir, err := os.MkdirTemp("", "tango-loopback-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	logSink := func(name string) (*os.File, error) {
		if cfg.ArtifactDir != "" {
			return os.Create(filepath.Join(cfg.ArtifactDir, name))
		}
		return os.Create(filepath.Join(dir, name))
	}

	type proc struct {
		cmd     *exec.Cmd
		log     *os.File
		site    string
		metrics string // scrape base URL, filled once the addr file lands
	}
	var procs []*proc
	defer func() {
		for _, p := range procs {
			if p.cmd.Process != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
			p.log.Close()
		}
	}()

	start := func(site, pathSpec string, extra ...string) (*proc, error) {
		log, err := logSink(site + ".log")
		if err != nil {
			return nil, err
		}
		args := []string{
			"-site", "site-" + site,
			"-listen", "127.0.0.1:0",
			"-paths", pathSpec,
			"-metrics", "127.0.0.1:0",
			"-addr-file", filepath.Join(dir, site+".addr"),
			"-status-every", "1s",
		}
		args = append(args, extra...)
		cmd := exec.Command(cfg.Tangod, args...)
		cmd.Stdout = log
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			log.Close()
			return nil, fmt.Errorf("start tangod %s: %w", site, err)
		}
		p := &proc{cmd: cmd, log: log, site: site}
		procs = append(procs, p)
		return p, nil
	}

	a, err := start("a", LivePathSpecA())
	if err != nil {
		return nil, err
	}
	addrsA, err := waitAddrFile(filepath.Join(dir, "a.addr"), deadline)
	if err != nil {
		return nil, fmt.Errorf("site-a: %w", err)
	}
	a.metrics = "http://" + addrsA.Metrics

	b, err := start("b", LivePathSpecB(), "-peer", addrsA.UDP)
	if err != nil {
		return nil, err
	}
	addrsB, err := waitAddrFile(filepath.Join(dir, "b.addr"), deadline)
	if err != nil {
		return nil, fmt.Errorf("site-b: %w", err)
	}
	b.metrics = "http://" + addrsB.Metrics

	for _, p := range []*proc{a, b} {
		if err := waitReady(p.metrics+"/readyz", deadline); err != nil {
			return nil, fmt.Errorf("site-%s never became ready: %w", p.site, err)
		}
	}

	// Convergence: poll each side's controller gauge until it settles on
	// the simulated reference answer.
	rep := &LoopbackReport{}
	convergeStart := time.Now()
	for {
		ma, err1 := scrapeProm(a.metrics + "/metrics")
		mb, err2 := scrapeProm(b.metrics + "/metrics")
		if err1 == nil && err2 == nil {
			rep.PathA = int(ma[`tango_controller_current_path{site="site-a"}`])
			rep.PathB = int(mb[`tango_controller_current_path{site="site-b"}`])
			if rep.PathA == liveWantA && rep.PathB == liveWantB {
				break
			}
		}
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("no convergence before timeout: site-a on path %d (want %d), site-b on path %d (want %d)",
				rep.PathA, liveWantA, rep.PathB, liveWantB)
		}
		time.Sleep(100 * time.Millisecond)
	}
	rep.ConvergedIn = time.Since(convergeStart)

	// Final scrapes go into the report and, as CI artifacts, to disk.
	for i, p := range []*proc{a, b} {
		raw, err := fetchProm(p.metrics + "/metrics")
		if err != nil {
			return rep, err
		}
		if cfg.ArtifactDir != "" {
			if err := os.WriteFile(filepath.Join(cfg.ArtifactDir, p.site+"_metrics.prom"), raw, 0o644); err != nil {
				return rep, err
			}
		}
		if rep.Final[i], err = ParseProm(bytes.NewReader(raw)); err != nil {
			return rep, err
		}
	}

	// Graceful teardown: SIGTERM, expect exit 0.
	for _, p := range []*proc{a, b} {
		if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
			return rep, fmt.Errorf("signal site-%s: %w", p.site, err)
		}
	}
	for _, p := range []*proc{a, b} {
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				return rep, fmt.Errorf("site-%s exited uncleanly: %w", p.site, err)
			}
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			return rep, fmt.Errorf("site-%s ignored SIGINT", p.site)
		}
	}
	return rep, nil
}

// tangodAddrs is the JSON tangod writes to -addr-file.
type tangodAddrs struct {
	UDP     string `json:"udp"`
	Metrics string `json:"metrics"`
}

func waitAddrFile(path string, deadline time.Time) (*tangodAddrs, error) {
	if err := waitFile(path, deadline); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a tangodAddrs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("addr file %s: %w", path, err)
	}
	return &a, nil
}

func waitFile(path string, deadline time.Time) error {
	for {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitReady polls tangod's /readyz until it answers 200, which it does
// once the peer handshake has established the pair.
func waitReady(url string, deadline time.Time) error {
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for 200 from %s", url)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchProm GETs one Prometheus text exposition.
func fetchProm(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeProm fetches and parses a Prometheus text exposition into a
// name{labels} -> value map (histogram buckets included verbatim).
func scrapeProm(url string) (map[string]float64, error) {
	raw, err := fetchProm(url)
	if err != nil {
		return nil, err
	}
	return ParseProm(bytes.NewReader(raw))
}

// ParseProm parses Prometheus text exposition.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err != nil {
			continue // timestamps / exotic values are not needed here
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}
