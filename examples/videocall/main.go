// Videocall models an interactive application where delay *variation*
// hurts more than the mean: a video call plays frames through a jitter
// buffer, and every frame arriving after its playout deadline is a glitch.
// The paper's §5 jitter measurements (GTT ~0.01 ms vs Telia ~0.33 ms in a
// 1-second rolling window) are exactly what this workload cares about.
//
// We stream 50 frames/s from LA to NY under each policy and count
// deadline misses with a tight 3 ms jitter budget over the path's own
// minimum — comparing the BGP default, the min-delay policy, and the
// jitter-aware policy while Telia flaps and GTT suffers a brief
// instability window.
//
//	go run ./examples/videocall
package main

import (
	"fmt"
	"time"

	"tango"
)

const (
	framePort   = 9200
	framePeriod = 20 * time.Millisecond // 50 fps
	runtime     = 12 * time.Minute
	warmup      = 3 * time.Minute
)

func main() {
	fmt.Println("videocall LA -> NY: frame deadline misses per policy")
	fmt.Printf("  %-28s %10s %10s %10s %12s\n", "policy", "frames", "misses", "miss rate", "mean latency")
	for _, pc := range []struct {
		name   string
		policy tango.Policy
	}{
		{"BGP default (no Tango)", tango.PolicyStaticDefault},
		{"Tango min-delay", tango.PolicyMinDelay},
		{"Tango min-jitter", tango.PolicyMinJitter},
	} {
		frames, misses, mean := run(pc.policy)
		fmt.Printf("  %-28s %10d %10d %9.3f%% %12v\n",
			pc.name, frames, misses, 100*float64(misses)/float64(frames), mean.Round(10*time.Microsecond))
	}
	fmt.Println("\nthe trade: the BGP default never glitches but pays its constant delay")
	fmt.Println("premium on every frame; min-delay gets the lowest latency but rides the")
	fmt.Println("unstable path through the incident; min-jitter buys near-default")
	fmt.Println("smoothness at near-minimum latency — per-application path choice is the")
	fmt.Println("point of exposing multiple paths (paper §3, §5).")
}

func run(policy tango.Policy) (frames, misses int, meanLat time.Duration) {
	lab, err := tango.NewLab(tango.Options{Seed: 11, PolicyLA: policy})
	if err != nil {
		panic(err)
	}
	lab.Run(warmup)

	// A mid-call instability window on GTT in the LA->NY direction.
	if err := lab.Chaos().Instability("ny", "GTT", 3*time.Minute, 4*time.Minute, 0.10, 40*time.Millisecond); err != nil {
		panic(err)
	}

	// Jitter buffer model: the receiver adapts its playout point to the
	// minimum latency over the last ~5 seconds of frames (so it re-syncs
	// after a path switch); a frame arriving more than the jitter budget
	// above that floor is a glitch.
	const budget = 3 * time.Millisecond
	const window = 250 // frames (~5 s at 50 fps)
	var recent []time.Duration
	sentAt := map[uint32]time.Duration{}
	lab.NY().OnReceive(framePort, func(d tango.Delivery) {
		if len(d.Payload) < 4 {
			return
		}
		s := uint32(d.Payload[0])<<24 | uint32(d.Payload[1])<<16 | uint32(d.Payload[2])<<8 | uint32(d.Payload[3])
		t0, ok := sentAt[s]
		if !ok {
			return
		}
		delete(sentAt, s)
		lat := d.At - t0
		meanLat += lat
		recent = append(recent, lat)
		if len(recent) > window {
			recent = recent[1:]
		}
		floor := recent[0]
		for _, v := range recent {
			if v < floor {
				floor = v
			}
		}
		frames++
		if lat > floor+budget {
			misses++
		}
	})

	src, dst := lab.LA().HostAddr(3), lab.NY().HostAddr(3)
	var seq uint32
	end := lab.Now() + runtime
	for lab.Now() < end {
		payload := []byte{byte(seq >> 24), byte(seq >> 16), byte(seq >> 8), byte(seq), 'f', 'r', 'a', 'm', 'e'}
		sentAt[seq] = lab.Now()
		seq++
		if err := lab.LA().Send(src, dst, framePort, framePort, payload); err != nil {
			panic(err)
		}
		lab.Run(framePeriod)
	}
	if frames > 0 {
		meanLat /= time.Duration(frames)
	}
	return frames, misses, meanLat
}
