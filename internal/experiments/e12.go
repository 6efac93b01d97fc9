package experiments

import (
	"fmt"
	"time"

	"tango/internal/sim"
)

// E12ShardedStorm is the scale experiment the sharded engine exists for:
// a wide mesh (64 sites × 16 providers, 320 pairs, 10,240 provisioned
// tunnels at full scale) rides out a seeded chaos storm — link failures,
// loss bursts, delay shifts, and BGP withdrawals drawn over every trunk
// in the deployment — while one application stream and the global
// conservation invariants verify the fabric stays coherent. The driver
// honors cfg.Shards (0 or 1 = one worker; the partition layout is fixed
// by the topology either way) and cfg.Sites (CI smoke runs a fraction of
// the full deployment).
func E12ShardedStorm(cfg Config) *Result {
	r := newResult("E12", "Sharded wide mesh rides out a chaos storm (§6 at scale)")

	sites := cfg.wideSites()
	d, reg, journal := newWideMesh(cfg.Seed+12, sites, cfg.Shards, time.Second)
	s, eng := d.Scenario, d.Scenario.B.Eng()
	parts, lookahead := eng.Coord().NumParts(), eng.Coord().Lookahead()

	tunnels := tunnelCount(d)
	expect := len(s.PairKeys) * 2 * 16
	r.check("full tunnel fabric provisioned", "every pair pins every shared provider",
		tunnels == expect && (sites < 64 || tunnels >= 10000),
		"%d tunnels across %d pairs", tunnels, len(s.PairKeys))
	r.check("partitioner split the mesh site-per-shard", "radial floors exceed the cut floor",
		parts == sites+16 && lookahead == 4*time.Millisecond,
		"%d partitions, lookahead %v", parts, lookahead)

	// The probe stream under test: the last chord pair, farthest offset.
	pk := s.PairKeys[len(s.PairKeys)-1]
	gen := appStream(d.Mesh, pk[0], pk[1])

	// Chaos over the whole deployment: every trunk is a fault target, and
	// the app pair's edges are withdrawable.
	d.EdgeTarget(pk[1], pk[0])
	window := cfg.dur(30 * time.Second)
	labels := storm(d, reg, journal, sim.NewStreams(cfg.Seed+12).Stream("e12/storm"), window)
	ch := d.Chaos

	s.Run(stormLead + window + 15*time.Second) // storm + reverts land
	gen.Stop()
	ch.StopChecks()
	s.Run(2 * time.Second)
	recs := gen.FinalRecords()

	sent, delivered := len(recs), 0
	for _, rec := range recs {
		if rec.RecvAt != 0 {
			delivered++
		}
	}
	ratio := 0.0
	if sent > 0 {
		ratio = float64(delivered) / float64(sent)
	}

	r.Rows = append(r.Rows, []string{"quantity", "value"})
	for _, row := range [][2]string{
		{"sites", fmt.Sprint(sites)},
		{"pairs", fmt.Sprint(len(s.PairKeys))},
		{"tunnels", fmt.Sprint(tunnels)},
		{"partitions", fmt.Sprint(parts)},
		{"lookahead", lookahead.String()},
		{"storm faults", fmt.Sprint(len(labels))},
		{"app sent", fmt.Sprint(sent)},
		{"app delivered", fmt.Sprint(delivered)},
	} {
		r.Rows = append(r.Rows, []string{row[0], row[1]})
	}

	r.check("storm drew its full fault schedule", "seeded draw over every trunk",
		len(labels) == sites, "%d faults", len(labels))
	r.check("stream survived the storm", "failover keeps the pair delivering",
		sent > 0 && ratio >= 0.5, "%d/%d delivered (%.0f%%)", delivered, sent, ratio*100)
	r.checkInvariants("conservation held through the storm", "no packet leaked or double-counted", ch)

	r.note("the storm draws %d faults over %d trunk lines; probes run at %v so the "+
		"fault timeline, not the probe plane, is the dominant load", sites, sites*16, wideProbeInterval)
	r.finish(eng, reg, journal)
	return r
}
