package sim

import (
	"math/rand"
	"testing"
	"time"
)

// fired is one event of an interleave script: when it fired, on which
// partition, and its scheduling index.
type fired struct {
	at       Time
	part, id int
}

// scanInterleave is the coupled interleave without cached next
// instants: it peeks every partition before every event and moves every
// clock to each event's instant, as runEpochCoupled did before engines
// cached their next instant. It is the reference the cached interleave
// must match.
func scanInterleave(c *Coordinator, end Time) {
	for {
		best, at := -1, Forever
		for i, e := range c.parts {
			if ev := e.peek(); ev != nil && ev.at < at {
				at, best = ev.at, i
			}
		}
		if best < 0 || at > end {
			break
		}
		for _, e := range c.parts {
			e.advanceTo(at)
		}
		c.parts[best].Step()
	}
	for _, e := range c.parts {
		e.advanceTo(end)
	}
	c.now = end
}

// interleaveScript runs one seeded script on a coupled coordinator of
// five partitions, advancing it with run, and returns the fire sequence.
// Instants fall on a 1 ms grid, so partitions tie often. Each callback
// may schedule onto any partition, at its own instant too, and may
// cancel a pending event anywhere, often the head of some partition; the
// script also cancels and schedules between runs, while the clocks rest.
func interleaveScript(seed int64, run func(*Coordinator, Time)) []fired {
	const parts = 5
	rng := rand.New(rand.NewSource(seed))
	c := NewCoordinator(parts, time.Millisecond)
	type pending struct {
		ev   *Event
		part int
		at   Time
	}
	var (
		out  []fired
		live []int // pending ids in scheduling order
		byID = map[int]pending{}
		n    int
	)
	drop := func(id int) {
		delete(byID, id)
		for i, v := range live {
			if v == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	step := func() Time {
		if rng.Intn(4) == 0 {
			return 0
		}
		return Time(rng.Intn(8)) * time.Millisecond
	}
	// cancel cancels one pending event: half the time the head of a
	// random partition (the earliest, first scheduled among ties).
	cancel := func() {
		if len(live) == 0 {
			return
		}
		id := live[rng.Intn(len(live))]
		if rng.Intn(2) == 0 {
			p, head := rng.Intn(parts), -1
			for _, v := range live {
				if q := byID[v]; q.part == p && (head < 0 || q.at < byID[head].at) {
					head = v
				}
			}
			if head >= 0 {
				id = head
			}
		}
		q := byID[id]
		c.Part(q.part).Cancel(q.ev)
		drop(id)
	}
	var schedule func(part int, at Time)
	schedule = func(part int, at Time) {
		id := n
		n++
		e := c.Part(part)
		ev := e.ScheduleAt(at, func() {
			out = append(out, fired{e.Now(), part, id})
			drop(id)
			if n < 4000 {
				for k := rng.Intn(4) / 2; k >= 0; k-- {
					schedule(rng.Intn(parts), e.Now()+step())
				}
			}
			if rng.Intn(3) == 0 {
				cancel()
			}
		})
		byID[id] = pending{ev, part, at}
		live = append(live, id)
	}

	for i := 0; i < 40; i++ {
		schedule(rng.Intn(parts), Time(rng.Intn(20))*time.Millisecond)
	}
	for round := 0; round < 30; round++ {
		run(c, c.now+Time(1+rng.Intn(15))*time.Millisecond)
		for k := rng.Intn(3); k > 0; k-- {
			cancel()
		}
		for k := rng.Intn(3); k > 0; k-- {
			schedule(rng.Intn(parts), c.now+step())
		}
	}
	run(c, c.now+time.Minute)
	return out
}

// TestCoupledInterleaveMatchesScan: the coupled interleave, which
// re-peeks only partitions whose queue changed since it last looked,
// fires exactly the sequence of a reference that peeks every partition
// before every event — the same events, at the same instants, ties going
// to the lowest partition. Dropping the invalidation on push, fire or
// Cancel makes it diverge.
func TestCoupledInterleaveMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := interleaveScript(seed, (*Coordinator).Run)
		want := interleaveScript(seed, scanInterleave)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: fire %d is %+v, the scan fires %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, the scan fires %d", seed, len(got), len(want))
		}
		if len(want) < 200 {
			t.Fatalf("seed %d: only %d events fired; the script exercises too little", seed, len(want))
		}
	}
}
