// Quickstart: bring up the paper's two-datacenter deployment, watch
// discovery expose four wide-area paths in each direction, and see the
// controller move traffic off the BGP default onto the fastest path.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"tango"
)

func main() {
	// One seed = one reproducible universe.
	fmt.Println("establishing Tango between Vultr NY and LA (virtual time)...")
	lab, err := tango.NewLab(tango.Options{Seed: 42})
	if err != nil {
		panic(err)
	}

	// Log every controller decision as it happens.
	for _, site := range []*tango.Site{lab.NY(), lab.LA()} {
		site := site
		site.OnPathSwitch(func(at time.Duration, from, to string) {
			fmt.Printf("  [%v] %s moved traffic %s -> %s\n", at.Round(time.Second), site.Name(), from, to)
		})
	}

	// Let probes flow and the controllers settle.
	lab.Run(5 * time.Minute)

	fmt.Println("\nNY's outgoing paths (one-way delay measured at LA; the raw values")
	fmt.Println("include the constant clock offset between the sites — differences")
	fmt.Println("between paths are what matter):")
	for _, p := range lab.NY().Paths() {
		mark := "  "
		if p.Current {
			mark = "->"
		}
		fmt.Printf(" %s path %d via %-7s AS path [%s]  mean %9.3f ms  jitter %.4f ms\n",
			mark, p.ID, p.Provider, p.ASPath, p.MeanOWDMs, p.JitterMs)
	}

	// Send an application packet and watch it arrive through the tunnel.
	got := make(chan tango.Delivery, 1)
	lab.LA().OnReceive(9000, func(d tango.Delivery) {
		select {
		case got <- d:
		default:
		}
	})
	src, dst := lab.NY().HostAddr(1), lab.LA().HostAddr(1)
	if err := lab.NY().Send(src, dst, 8000, 9000, []byte("hello from NY")); err != nil {
		panic(err)
	}
	lab.Run(time.Second)
	select {
	case d := <-got:
		fmt.Printf("\nLA received %q from %v (tunnelled over %s)\n",
			d.Payload, d.Src, lab.NY().CurrentPath())
	default:
		fmt.Println("\npacket did not arrive!")
	}
}
