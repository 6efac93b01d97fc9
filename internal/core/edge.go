package core

import (
	"fmt"
	"net/netip"
	"time"

	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/transport"
	"tango/internal/workload"
)

// Edge is one Tango border switch with its measurement loop — the object
// of the paper's Figure 2 — on any transport endpoint: a simnet node in
// virtual time or a UDP socket backend on the wall clock. Every
// deployment in the tree (core.Pair and through it Mesh, tangod, the
// E8-live reference) builds its edges here, so what a pair's probing
// costs is switched on in exactly one place.
type Edge struct {
	Switch     *dataplane.Switch
	Monitor    *control.Monitor    // measures incoming (peer->this) paths
	Controller *control.Controller // steers outgoing (this->peer) traffic; set by Start
	Reporter   *control.Reporter   // set by Start when reporting is on
	Prober     *workload.Prober    // set by Probe

	eng *sim.Engine
	// instrument registers a controller's metrics; set by Instrument so a
	// controller created later by Start is covered too.
	instrument func(*control.Controller)
}

// EdgePath is one outgoing wide-area path: its provider label and the
// peer's tunnel endpoint announced over that provider.
type EdgePath struct {
	Name   string
	Remote netip.Addr
}

// EdgeConfig carries what differs between deployments of an edge.
type EdgeConfig struct {
	// Local is the outer source address of every tunnel.
	Local netip.Addr
	// Paths are the outgoing paths in discovery order: path i becomes
	// tunnel PathID i+1 with outer source port 41000+i.
	Paths []EdgePath
	// PeerPaths names the peer's outgoing paths in the same order — the
	// incoming paths this edge's monitor measures.
	PeerPaths []string
	// Policy picks the path carrying data traffic.
	Policy control.Policy
	// DecideEvery and ReportEvery pace the controller and the
	// piggybacked reports; zero leaves that loop off.
	DecideEvery, ReportEvery time.Duration
	// ReportMaxAge stops reporting a path that has delivered nothing for
	// this long, so the sender's estimate goes stale and its policy
	// evacuates.
	ReportMaxAge time.Duration
	// AuthKey, when non-empty, signs outgoing Tango datagrams and drops
	// incoming ones that fail verification.
	AuthKey []byte
}

// The live edge: cadences and steering policy for an edge on a real
// socket, scaled to the wall clock so a loopback pair converges within a
// couple of seconds. tangod runs on them and so does the E8-live
// simulated reference, so both transports steer on one configuration.
const (
	LiveProbeEvery  = 20 * time.Millisecond
	liveReportEvery = 25 * time.Millisecond
	liveDecideEvery = 100 * time.Millisecond
)

// LiveMinDelay returns the live edge's min-delay policy.
func LiveMinDelay() control.Policy {
	return &control.MinOWD{HysteresisMs: 1, MinDwell: 300 * time.Millisecond, StaleAfter: 5 * time.Second}
}

// LiveEdgeConfig is the live edge's configuration: outgoing path i is
// named paths[i] and reaches the peer's endpoint remotes[i], peerPaths
// names the peer's outgoing paths, and the cadences are the live ones.
// Probe at LiveProbeEvery once both edges of the pair have started.
func LiveEdgeConfig(local netip.Addr, paths []string, remotes []netip.Addr, peerPaths []string, pol control.Policy) EdgeConfig {
	cfg := EdgeConfig{
		Local:        local,
		PeerPaths:    peerPaths,
		Policy:       pol,
		DecideEvery:  liveDecideEvery,
		ReportEvery:  liveReportEvery,
		ReportMaxAge: 5 * liveReportEvery,
	}
	for i, name := range paths {
		cfg.Paths = append(cfg.Paths, EdgePath{Name: name, Remote: remotes[i]})
	}
	return cfg
}

// NewEdge attaches a switch and a monitor to ep; eng is the engine ep's
// events run on. The edge carries no traffic until Start.
func NewEdge(ep transport.Endpoint, eng *sim.Engine) *Edge {
	return &Edge{Switch: dataplane.NewSwitch(ep), Monitor: control.NewMonitor(), eng: eng}
}

// Start provisions the tunnels and starts the measurement loop: the
// monitor on arriving packets, the controller fed by the peer's
// piggybacked reports, and the reporter feeding the peer's.
func (e *Edge) Start(cfg EdgeConfig) {
	for i, p := range cfg.Paths {
		e.Switch.AddTunnel(&dataplane.Tunnel{
			PathID:     uint8(i + 1),
			Name:       p.Name,
			LocalAddr:  cfg.Local,
			RemoteAddr: p.Remote,
			SrcPort:    uint16(41000 + i),
		})
	}
	if len(cfg.AuthKey) > 0 {
		e.Switch.SetAuthKey(cfg.AuthKey)
	}
	e.Monitor.Attach(e.Switch, func(id uint8) string { return pathName(cfg.PeerPaths, id) })

	e.Controller = control.NewController(e.eng, e.Switch, cfg.Policy)
	e.Controller.AttachFeedback(e.Switch)
	if e.instrument != nil {
		e.instrument(e.Controller)
	}
	if cfg.DecideEvery > 0 {
		e.Controller.Start(cfg.DecideEvery)
	}
	if cfg.ReportEvery > 0 {
		e.Reporter = control.NewReporter(e.eng, e.Monitor, e.Switch, cfg.ReportEvery)
		e.Reporter.MaxAge = cfg.ReportMaxAge
	}
}

// Probe starts measurement probes on every tunnel; src and dst address
// the inner probe packet. A pair starts both edges before either probes,
// so ticker creation order — and with it same-instant event order — does
// not depend on which side is wired first.
func (e *Edge) Probe(src, dst netip.Addr, every time.Duration) {
	e.Prober = workload.NewProber(e.eng, e.Switch, src, dst, every)
}

// Instrument registers the switch, monitor and controller metrics in reg
// under the given site label and journals path switches to j. It may be
// called before Start: the controller registers once Start creates it.
func (e *Edge) Instrument(reg *obs.Registry, j *obs.Journal, site string) {
	e.Switch.Instrument(reg, site)
	e.Monitor.Instrument(reg, site)
	e.instrument = func(c *control.Controller) { c.Instrument(reg, j, site) }
	if e.Controller != nil {
		e.instrument(e.Controller)
	}
}

// pathName returns the label of 1-based path id in names.
func pathName(names []string, id uint8) string {
	if i := int(id) - 1; i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("path-%d", id)
}
