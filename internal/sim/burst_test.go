package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The burst differential covers what the due heap added and the 300-op
// scripts of differential_test.go never reach: a due set thousands deep,
// filled in arbitrary order behind a cursor that has run ahead, and
// cancelled in bulk while populated. Scripts are byte strings so the same interpreter serves
// the seeded differential, its replay twin and the coverage-guided fuzz
// target; every byte string is a valid script.
//
// Encoding — one opcode byte (mod 5), then its operands (missing bytes
// read as zero):
//
//	0 schedule  class, mag(2), child   one event; delay = opDelay(class, mag)
//	1 cancel    k(2)                   the k-th live event (mod live count)
//	2 run       class, mag(2)          Run(now + opDelay(class, mag))
//	3 nextAt                           NextAt, traced; runs the cursor ahead
//	4 burst     n(2), c(2), seed       see (*byteScript).burst
//
// A non-zero child byte makes the event's callback schedule one child
// whose own child byte is half of it, so chains end. Unlike runScript,
// checkpoints do not call NextAt: whether the cursor has run ahead is
// itself under the script's control.

const (
	opSchedule = iota
	opCancel
	opRun
	opNextAt
	opBurst
	numOps

	// maxScriptEvents bounds the work one (fuzzed) script can ask for.
	maxScriptEvents = 40_000
)

// opDelay maps a class and a magnitude onto the wheel's regions: the same
// mix as drawDelay, addressed by bytes.
func opDelay(class byte, mag uint16) time.Duration {
	m := int64(mag)
	switch class % 8 {
	case 0:
		return 0 // same instant
	case 1:
		return time.Duration(m % (1 << granBits)) // sub-granule
	case 2:
		return time.Duration(m) // level-0 window
	case 3:
		return time.Duration(m) * time.Microsecond
	case 4:
		return time.Duration(m) * time.Millisecond
	case 5:
		return time.Duration(m) * time.Second
	case 6:
		return time.Duration(1<<(granBits+(numLevels-1)*levelBits) | m<<20) // top level
	default:
		return time.Duration(1<<63 - 1 - m) // clamps to Forever
	}
}

type byteScript struct {
	d     *diffDriver
	data  []byte
	fires []firing
	trace []int64
	live  []int       // creation indices currently pending
	pos   map[int]int // creation index → position in live
	n     int         // events scheduled so far
	// dueTombs is the most tombstones an Engine's due heap held after a
	// burst's cancels (0 for the reference heap).
	dueTombs int
}

func (s *byteScript) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *byteScript) u16() uint16 { return uint16(s.byte())<<8 | uint16(s.byte()) }

func (s *byteScript) forget(idx int) {
	p := s.pos[idx]
	last := s.live[len(s.live)-1]
	s.live[p] = last
	s.pos[last] = p
	s.live = s.live[:len(s.live)-1]
	delete(s.pos, idx)
}

// sched schedules one recording event (a no-op past maxScriptEvents).
func (s *byteScript) sched(dd time.Duration, child byte, mag uint16) int {
	if s.n >= maxScriptEvents {
		return -1
	}
	s.n++
	var self int
	self = s.d.schedule(dd, func() {
		s.fires = append(s.fires, firing{s.d.now(), self})
		s.forget(self)
		if child != 0 {
			s.sched(opDelay(child, mag), child/2, mag*31+7)
		}
	})
	s.pos[self] = len(s.live)
	s.live = append(s.live, self)
	return self
}

func (s *byteScript) cancel(idx int) {
	s.forget(idx)
	s.d.cancel(idx)
}

// burst is the case the due heap exists for. A far timer and NextAt run
// the cursor ahead; 3–5k events then land in already-passed granules in
// random order — one in eight at a single hot instant, one in eight with
// children — at least half of them are cancelled at random, which leaves
// tombstones all through the populated due heap, and the rest run.
func (s *byteScript) burst(n, cancels int, seed byte) {
	rng := rand.New(rand.NewSource(int64(seed)))
	s.sched(5*time.Millisecond+time.Duration(rng.Intn(1000))*time.Microsecond, 0, 0)
	at, _ := s.d.nextAt()
	window := int64(at - s.d.now())
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		dd := time.Duration(rng.Int63n(window + 1))
		if rng.Intn(8) == 0 {
			dd = time.Duration(window / 2)
		}
		var child byte
		if rng.Intn(8) == 0 {
			child = byte(1 + rng.Intn(255))
		}
		if idx := s.sched(dd, child, uint16(rng.Intn(1<<16))); idx >= 0 {
			ids = append(ids, idx)
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if cancels > len(ids) {
		cancels = len(ids)
	}
	for _, idx := range ids[:cancels] {
		s.cancel(idx)
	}
	if e := s.d.eng; e != nil {
		tombs := 0
		for _, ev := range e.w.due {
			if ev.state == stateDone {
				tombs++
			}
		}
		s.dueTombs = max(s.dueTombs, tombs)
	}
	s.runFor(time.Duration(window))
}

// runFor runs the driver for dd of virtual time, clamping at Forever.
func (s *byteScript) runFor(dd time.Duration) {
	until := s.d.now() + Time(dd)
	if until < s.d.now() {
		until = Forever
	}
	s.d.run(until)
}

// runBytes executes one byte script against a fresh driver and returns
// the fire sequence plus the checkpoint trace.
func runBytes(data []byte, d *diffDriver) ([]firing, []int64) {
	s := runByteScript(data, d)
	return s.fires, s.trace
}

func runByteScript(data []byte, d *diffDriver) *byteScript {
	s := &byteScript{d: d, data: data, pos: make(map[int]int)}
	for len(s.data) > 0 {
		switch s.byte() % numOps {
		case opSchedule:
			class, mag, child := s.byte(), s.u16(), s.byte()
			s.sched(opDelay(class, mag), child, mag)
		case opCancel:
			if k := int(s.u16()); len(s.live) > 0 {
				s.cancel(s.live[k%len(s.live)])
			}
		case opRun:
			class, mag := s.byte(), s.u16()
			s.runFor(opDelay(class, mag))
		case opNextAt:
			at, ok := s.d.nextAt()
			okBit := int64(0)
			if ok {
				okBit = 1
			}
			s.trace = append(s.trace, int64(at), okBit)
		case opBurst:
			n := 3000 + int(s.u16())%2001
			cancels := n/2 + int(s.u16())%(n/2)
			s.burst(n, cancels, s.byte())
		}
		s.trace = append(s.trace, int64(s.d.now()), int64(s.d.pending()))
	}
	s.d.run(Forever)
	s.trace = append(s.trace, int64(s.d.now()), int64(s.d.pending()))
	return s
}

// burstScript generates the seeded script of the burst differential: 120
// ops of the ordinary mix with two bursts among them.
func burstScript(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	u16 := func() { out = binary.BigEndian.AppendUint16(out, uint16(rng.Intn(1<<16))) }
	const ops = 120
	b1, b2 := rng.Intn(ops), rng.Intn(ops)
	for op := 0; op < ops; op++ {
		if op == b1 || op == b2 {
			out = append(out, opBurst)
			u16()
			u16()
			out = append(out, byte(rng.Intn(256)))
			continue
		}
		switch p := rng.Intn(100); {
		case p < 50:
			out = append(out, opSchedule, byte(rng.Intn(8)))
			u16()
			child := byte(0)
			if rng.Intn(4) == 0 {
				child = byte(rng.Intn(256))
			}
			out = append(out, child)
		case p < 65:
			out = append(out, opCancel)
			u16()
		case p < 90:
			out = append(out, opRun, byte(1+rng.Intn(4)))
			u16()
		default:
			out = append(out, opNextAt)
		}
	}
	return out
}

// sameRun fails the test unless two runs of one script fired the same
// sequence and traced the same checkpoints.
func sameRun(t *testing.T, what string, af []firing, at []int64, bf []firing, bt []int64) {
	t.Helper()
	if len(af) != len(bf) {
		t.Fatalf("%s: fired %d vs %d events", what, len(af), len(bf))
	}
	for i := range af {
		if af[i] != bf[i] {
			t.Fatalf("%s: fire %d diverged: (%v, #%d) vs (%v, #%d)",
				what, i, af[i].at, af[i].idx, bf[i].at, bf[i].idx)
		}
	}
	if len(at) != len(bt) {
		t.Fatalf("%s: checkpoint trace lengths differ: %d vs %d", what, len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("%s: checkpoint %d diverged: %d vs %d", what, i, at[i], bt[i])
		}
	}
}

func TestDifferentialBurstVsHeap(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= seeds; seed++ {
		script := burstScript(seed)
		ed := engineDriver()
		ws := runByteScript(script, ed)
		hf, ht := runBytes(script, refDriver())
		sameRun(t, fmt.Sprintf("seed %d", seed), ws.fires, ws.trace, hf, ht)
		// The script did what it is for: the due set held a burst, and
		// cancels left tombstones in it for peek to skip and recycle.
		if st := ed.eng.Stats; st.DuePeak < 3000 || ws.dueTombs < 1000 {
			t.Fatalf("seed %d: DuePeak %d, %d due tombstones: the burst never populated the due set and cancelled in it",
				seed, st.DuePeak, ws.dueTombs)
		}
		if n := len(ed.eng.w.due); n != 0 {
			t.Fatalf("seed %d: due heap holds %d events after the final drain", seed, n)
		}
	}
}

// The burst scripts must also replay identically on a fresh Engine.
func TestDifferentialBurstReplay(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		script := burstScript(seed)
		af, at := runBytes(script, engineDriver())
		bf, bt := runBytes(script, engineDriver())
		sameRun(t, "replay", af, at, bf, bt)
	}
}

// FuzzEngineVsRef is the coverage-guided twin of the differentials: any
// byte string is a script, and the Engine and the reference heap must
// agree on every fire and every checkpoint.
func FuzzEngineVsRef(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(burstScript(seed))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		wf, wt := runBytes(script, engineDriver())
		hf, ht := runBytes(script, refDriver())
		sameRun(t, "fuzz", wf, wt, hf, ht)
	})
}
