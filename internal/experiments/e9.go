package experiments

import (
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/simnet"
)

// E9LossReorder validates §3's claim that "adding tunnel-specific
// sequence numbers on packets can allow Tango to additionally compute
// loss and reordering" — with correct per-path attribution and no probe
// traffic beyond the data packets themselves. A loss burst and an
// instability window (whose spikes overtake later packets, reordering
// them) are injected on GTT only; the measurement engine must see both
// on GTT and neither anywhere else.
func E9LossReorder(cfg Config) *Result {
	r := newResult("E9", "Loss and reordering from tunnel sequence numbers (§3)")
	l := newLab(labOpts{
		seed:          cfg.Seed + 9,
		probeInterval: probeInterval,
	})

	lead := cfg.dur(2 * time.Minute)
	burstLoss := 0.02
	lossAt := l.S.B.W.Now() + lead
	lossDur := 3 * time.Minute
	l.Chaos.Schedule(chaos.LossBurst("trunk/la/GTT", lossAt, lossDur, burstLoss))

	// Snapshot sequence accounting per path around the burst.
	type snap struct{ recv, lost, reord uint64 }
	take := func() map[string]snap {
		out := map[string]snap{}
		for _, pm := range l.monLA().Paths() {
			out[pm.Name] = snap{pm.Seq.Received, pm.Seq.Lost, pm.Seq.Reordered}
		}
		return out
	}

	l.S.B.W.Run(lossAt)
	before := take()
	l.run(lossDur)
	after := take()

	r.Rows = append(r.Rows, []string{"path", "window", "received", "lost", "measured loss", "reordered"})
	lossRate := func(name string, a, b map[string]snap) (float64, uint64, uint64, uint64) {
		recv := b[name].recv - a[name].recv
		lost := b[name].lost - a[name].lost
		reord := b[name].reord - a[name].reord
		total := recv + lost
		if total == 0 {
			return 0, recv, lost, reord
		}
		return float64(lost) / float64(total), recv, lost, reord
	}
	var gttLoss float64
	othersClean := true
	for _, name := range []string{"NTT", "Telia", "GTT", "Level3"} {
		rate, recv, lost, reord := lossRate(name, before, after)
		if name == "GTT" {
			gttLoss = rate
		} else if lost != 0 {
			othersClean = false
		}
		r.Rows = append(r.Rows, []string{name, "loss burst",
			fmt.Sprintf("%d", recv), fmt.Sprintf("%d", lost),
			fmt.Sprintf("%.3f%%", rate*100), fmt.Sprintf("%d", reord)})
	}
	r.check("measured loss matches injected rate", fmt.Sprintf("%.1f%% burst on GTT", burstLoss*100),
		within(gttLoss, burstLoss*0.7, burstLoss*1.3), "%.3f%%", gttLoss*100)
	r.check("loss attributed to the right path", "other paths unaffected", othersClean, "%v", othersClean)

	// Reordering: heavy spikes make slow packets arrive after their
	// successors.
	instAt := l.S.B.W.Now() + time.Minute
	instDur := 3 * time.Minute
	l.Chaos.Schedule(chaos.Instability("trunk/la/GTT", instAt, instDur,
		simnet.SpikeDelay{Prob: 0.05, Mean: 30 * time.Millisecond, Cap: 60 * time.Millisecond}, 0, 0))
	l.S.B.W.Run(instAt)
	before = take()
	l.run(instDur)
	after = take()

	gttReord := after["GTT"].reord - before["GTT"].reord
	othersReord := uint64(0)
	for _, name := range []string{"NTT", "Telia", "Level3"} {
		othersReord += after[name].reord - before[name].reord
	}
	r.Rows = append(r.Rows, []string{"GTT", "instability", "-", "-", "-", fmt.Sprintf("%d", gttReord)})
	r.check("reordering detected during spikes", "spiked packets overtaken by successors",
		gttReord > 100, "%d reordered on GTT", gttReord)
	r.check("reordering attributed to the right path", "other paths in order",
		othersReord == 0, "%d elsewhere", othersReord)

	// No false positives in quiet operation.
	var quietLost, quietReord uint64
	for _, name := range []string{"NTT", "Telia", "Level3"} {
		quietLost += after[name].lost
		quietReord += after[name].reord
	}
	r.check("no false loss/reorder on quiet paths", "sequence accounting exact",
		quietLost == 0 && quietReord == 0, "lost=%d reordered=%d", quietLost, quietReord)
	r.invariantsHold(l.Chaos)

	r.note("GTT cumulative loss over the whole trace: %.4f%%", pathByName(l.monLA(), "GTT").Seq.LossRate()*100)

	r.VirtualTime = l.now()
	l.snapshot(r)
	r.Trace = traceJSON(l.J)
	return r
}
