// Tango-of-N demonstrates the paper's §6 direction: pairwise Tango as the
// building block of a RON-like overlay, now a first-class deployment via
// tango.NewMesh. Three sites' POPs attach to different transit providers:
//
//	ny:  NTT, Telia        la:  NTT, GTT        chi: NTT, Telia, GTT
//
// NY and LA share only NTT, so the direct NY<->LA Tango pair exposes a
// single wide-area path — nothing to optimize over, exactly the situation
// §2 motivates. CHI shares a fast provider with each site, so the mesh
// composes the NY<->CHI and CHI<->LA pairs into a second, fully disjoint
// route and keeps both scored from live per-segment measurements. When
// NTT suffers an internal route change, the direct pair can only ride it
// out; the overlay routes around it.
//
//	go run ./examples/tango-of-n
package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"tango"
	"tango/internal/obs"
)

const (
	appPort   = 9400
	appPeriod = 50 * time.Millisecond
)

func main() {
	fmt.Println("establishing three pairwise Tango deployments...")
	mesh, err := tango.NewMesh(tango.MeshOptions{Seed: 31})
	if err != nil {
		panic(err)
	}
	// The metrics an operator would scrape; the run checks one of them
	// against the relay's own count below.
	reg := obs.NewRegistry()
	mesh.Instrument(reg, obs.NewJournal(1024))

	for _, pair := range [][2]string{{"ny", "la"}, {"ny", "chi"}, {"chi", "la"}} {
		paths, err := mesh.Paths(pair[0], pair[1])
		if err != nil {
			panic(err)
		}
		names := make([]string, 0, len(paths))
		for _, p := range paths {
			names = append(names, p.Provider)
		}
		fmt.Printf("  %s<->%s exposes %d path(s): %v\n", pair[0], pair[1], len(names), names)
	}
	mesh.Run(2 * time.Minute) // let probes feed every segment's estimate

	fmt.Println("\nend-to-end routes ny->la (best first):")
	for _, r := range mesh.Routes("ny", "la") {
		kind := "direct"
		if r.Relayed() {
			kind = "relayed"
		}
		fmt.Printf("  %-14s %-8s score %7.2f ms\n", r, kind, r.OWDMs)
	}

	// Ground-truth latency accounting per route, fed by sequence-stamped
	// app packets; deliveries land at LA whichever member received them.
	sentAt := map[uint32]time.Duration{}
	onRoute := map[uint32]bool{} // seq -> was sent on the relayed route
	directW, relayW := newWindow(), newWindow()
	mesh.OnReceive("la", appPort, func(d tango.Delivery) {
		seq := binary.BigEndian.Uint32(d.Payload)
		t0, ok := sentAt[seq]
		if !ok {
			return
		}
		delete(sentAt, seq)
		if onRoute[seq] {
			relayW.add(d.At - t0)
		} else {
			directW.add(d.At - t0)
		}
		delete(onRoute, seq)
	})

	// The incident: NTT's internal route toward LA lengthens by 8 ms for
	// 10 minutes — the direct pair's only path.
	lead := 3 * time.Minute
	eventDur := 10 * time.Minute
	if err := mesh.Chaos().RouteShift("la", "NTT", lead, eventDur, 8*time.Millisecond); err != nil {
		panic(err)
	}
	fmt.Printf("\nscheduled: +8 ms NTT internal route change toward LA (the direct pair's only path)\n\n")

	routes := mesh.Routes("ny", "la")
	var direct, relayed tango.Route
	for _, r := range routes {
		if r.Relayed() {
			relayed = r
		} else {
			direct = r
		}
	}

	var seq uint32
	phase := func(label string, dur time.Duration) {
		directW.reset()
		relayW.reset()
		end := mesh.Now() + dur
		for mesh.Now() < end {
			// One packet down each route per period.
			for _, r := range []tango.Route{direct, relayed} {
				sentAt[seq] = mesh.Now()
				onRoute[seq] = r.Relayed()
				if err := mesh.Send(r, appPort, appPort, payload(seq)); err != nil {
					panic(err)
				}
				seq++
			}
			mesh.Run(appPeriod)
		}
		d, r := directW.mean(), relayW.mean()
		best, _ := mesh.BestRoute("ny", "la")
		pick := "direct"
		if best.Relayed() {
			pick = "relay via " + best.Via[0]
		}
		fmt.Printf("  %-22s direct %8.2f ms   relay via CHI %8.2f ms   -> overlay picks %s\n",
			label, ms(d), ms(r), pick)
	}
	phase("before incident", lead)
	phase("during incident", eventDur-time.Minute)
	mesh.Run(3 * time.Minute) // let the reroute settle back
	phase("after incident", 2*time.Minute)

	fwd, expired := mesh.RelayStats("chi")
	// Every packet chi's switches hand to the relay is forwarded or
	// expires there, so the scraped counters must add up to RelayStats.
	var handed uint64
	for _, peer := range []string{"ny", "la"} {
		handed += reg.Counter("tango_dataplane_relayed_total", "", obs.L("site", "chi->"+peer)).Value()
	}
	if handed != fwd+expired {
		panic(fmt.Sprintf("chi's switches handed %d packets to the relay, RelayStats counts %d", handed, fwd+expired))
	}
	fmt.Printf("\nchi relayed %d packets end-to-end.\n", fwd)
	fmt.Println("a pair with one path has no choices; an overlay of pairs does (§6).")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type window struct {
	sum time.Duration
	n   int
}

func newWindow() *window              { return &window{} }
func (w *window) add(d time.Duration) { w.sum += d; w.n++ }
func (w *window) reset()              { w.sum, w.n = 0, 0 }
func (w *window) mean() time.Duration {
	if w.n == 0 {
		return 0
	}
	return w.sum / time.Duration(w.n)
}

func payload(seq uint32) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b, seq)
	return b
}
