// Package chaos is the deterministic fault-injection engine for the
// simulated Tango deployment. It schedules scripted or seeded-random
// fault timelines — link flaps, loss bursts, delay shifts, BGP
// withdrawals, and the two wide-area incidents the paper's eight-day
// measurement happened to capture (§5, Figure 4 middle and right:
// RouteShift and Instability) — on the same event loop the system under
// test runs on, and checks registered invariants as the simulation
// advances. A fault touches one named target, so every other path keeps
// its usual behaviour, matching the paper's observation that "all other
// networks experience almost no interference".
//
// Everything is deterministic: faults fire at exact virtual instants,
// random timelines are drawn from a caller-provided named RNG stream,
// and the engine keeps an ordered event log so two runs with the same
// seed can be compared byte for byte (see the replay test).
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tango/internal/bgp"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// Entry is one line of the chaos event log.
type Entry struct {
	At  sim.Time
	Msg string
}

// Violation records an invariant failure observed at a check instant.
type Violation struct {
	At        sim.Time
	Invariant string
	Err       string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%s %s: %s", v.At, v.Invariant, v.Err)
}

// Invariant is a property checked repeatedly while the simulation runs.
// Check returns a non-nil error when the property is violated at now.
type Invariant interface {
	Name() string
	Check(now sim.Time) error
}

type funcInvariant struct {
	name string
	fn   func(now sim.Time) error
}

func (f *funcInvariant) Name() string             { return f.name }
func (f *funcInvariant) Check(now sim.Time) error { return f.fn(now) }

// InvariantFunc wraps a closure as an Invariant.
func InvariantFunc(name string, fn func(now sim.Time) error) Invariant {
	return &funcInvariant{name: name, fn: fn}
}

// Engine drives fault timelines against named targets and watches
// invariants. Targets are registered under stable names so event logs
// and random target selection are reproducible across runs.
type Engine struct {
	eng      *sim.Engine
	lines    map[string]*lineTarget
	speakers map[string]*bgp.Speaker

	invs       []Invariant
	log        []Entry
	violations []Violation

	// Log entries produced on the partition engines of a network with
	// several stage per partition (one writer each) and merge into log at
	// epoch barriers in canonical (At, partition, append) order, so
	// LogString stays byte-identical across worker counts. checksOn gates
	// the barrier-hook check cadence (hooks cannot be unregistered).
	logStage    [][]Entry
	checkHooked bool
	checksOn    bool

	// Instrumentation (nil when uninstrumented). The journal mirrors the
	// event log: fault applies/reverts, withdrawals, and violations each
	// append one virtual-time record, so seeded runs produce byte-identical
	// trace tails.
	reg        *obs.Registry
	journal    *obs.Journal
	obsApplied *obs.Counter
	obsRevert  *obs.Counter
	obsViol    *obs.Counter
}

// New creates a chaos engine on the simulation engine under test: a
// partition engine of the simulated network (simnet.Network.Eng). It
// registers the barrier hook that folds staged log entries and journal
// views back into the shared log and journal, ahead of any check hook,
// so checks at a barrier observe both merged.
func New(eng *sim.Engine) *Engine {
	c := eng.Coord()
	e := &Engine{
		eng:      eng,
		lines:    make(map[string]*lineTarget),
		speakers: make(map[string]*bgp.Speaker),
		logStage: make([][]Entry, c.NumParts()),
	}
	c.AtBarrier(0, func(sim.Time) {
		e.journal.MergeShards()
		e.mergeStagedLog()
	})
	return e
}

// Sim returns the underlying simulation engine.
func (e *Engine) Sim() *sim.Engine { return e.eng }

// Instrument registers fault counters in reg and starts journaling chaos
// events to j. Lines already registered as targets gain per-line drop
// counters; lines added later are instrumented in AddLine.
func (e *Engine) Instrument(reg *obs.Registry, j *obs.Journal) {
	e.reg = reg
	e.journal = j
	e.obsApplied = reg.Counter("tango_chaos_faults_applied_total",
		"Faults whose Apply ran successfully.")
	e.obsRevert = reg.Counter("tango_chaos_faults_reverted_total",
		"Fault windows that closed and reverted.")
	e.obsViol = reg.Counter("tango_chaos_violations_total",
		"Invariant violations observed at check instants.")
	for name, t := range e.lines {
		e.instrumentLine(name, t.line)
	}
}

func (e *Engine) instrumentLine(name string, l *simnet.Line) {
	drop := e.reg.Counter("tango_line_drops_total",
		"Packets refused at line admission (down or queue overflow).",
		obs.L("line", name))
	l.Instrument(name, drop, e.journalFor(l.Eng()))
}

// journalFor returns the journal view an event running on eng may write:
// eng's partition shard view when its events stage (merged at epoch
// barriers), else the parent journal.
func (e *Engine) journalFor(eng *sim.Engine) *obs.Journal {
	if eng.Staged() {
		return e.journal.Shard(eng.Part())
	}
	return e.journal
}

// AddLine registers a line as a fault target under name.
func (e *Engine) AddLine(name string, l *simnet.Line) {
	e.lines[name] = &lineTarget{line: l}
	if e.reg != nil {
		e.instrumentLine(name, l)
	}
}

// AddSpeaker registers a BGP speaker as a withdrawal target under name.
func (e *Engine) AddSpeaker(name string, sp *bgp.Speaker) { e.speakers[name] = sp }

// Line returns the registered line, or nil.
func (e *Engine) Line(name string) *simnet.Line {
	if t := e.lines[name]; t != nil {
		return t.line
	}
	return nil
}

// LineNames returns the registered line names, sorted.
func (e *Engine) LineNames() []string {
	out := make([]string, 0, len(e.lines))
	for n := range e.lines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SpeakerNames returns the registered speaker names, sorted.
func (e *Engine) SpeakerNames() []string {
	out := make([]string, 0, len(e.speakers))
	for n := range e.speakers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Watch registers an invariant; it is checked on the cadence set by
// StartChecks and by CheckNow.
func (e *Engine) Watch(inv Invariant) { e.invs = append(e.invs, inv) }

// Invariants returns how many invariants are registered.
func (e *Engine) Invariants() int { return len(e.invs) }

// Schedule arms faults: Apply fires at each fault's start instant and,
// for a finite window, the returned revert runs when the window closes.
// Both transitions are logged. On a sharded network a fault fires on
// its target's partition engine (line faults mutate send-path state
// owned by the line's source partition; withdrawals run on the
// speaker's partition), so no cross-partition state is touched.
func (e *Engine) Schedule(fs ...Fault) {
	for _, f := range fs {
		e.schedule(f)
	}
}

func (e *Engine) schedule(f Fault) {
	at, dur := f.Window()
	kind := obs.KindFaultApply
	if _, isWithdraw := f.(Withdrawal); isWithdraw {
		kind = obs.KindWithdraw
	}
	owner := f.owner(e)
	if owner == nil {
		owner = e.eng // unknown target: Apply fails and is logged here
	}
	owner.ScheduleAt(at, func() {
		revert, err := f.Apply(e)
		if err != nil {
			e.logOn(owner, "fault %s: %v", f.Label(), err)
			return
		}
		e.logOn(owner, "apply %s", f.Label())
		e.obsApplied.Inc()
		e.journalFor(owner).Record(owner.Now(), kind, 0, 0, int64(dur), f.Label())
		if revert != nil && dur > 0 {
			owner.Schedule(dur, func() {
				revert()
				e.logOn(owner, "revert %s", f.Label())
				e.obsRevert.Inc()
				e.journalFor(owner).Record(owner.Now(), obs.KindFaultRevert, 0, 0, 0, f.Label())
			})
		}
	})
}

// mergeStagedLog drains per-partition staged entries into the shared log
// in (At, partition, append order) order. Runs only at barriers (workers
// quiesced).
func (e *Engine) mergeStagedLog() {
	type staged struct {
		part int
		en   Entry
	}
	var all []staged
	for p := range e.logStage {
		for _, en := range e.logStage[p] {
			all = append(all, staged{p, en})
		}
		e.logStage[p] = e.logStage[p][:0]
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].en.At != all[j].en.At {
			return all[i].en.At < all[j].en.At
		}
		return all[i].part < all[j].part
	})
	for _, s := range all {
		e.log = append(e.log, s.en)
	}
}

// StartChecks begins checking every registered invariant on a fixed
// cadence. The cadence rides the coordinator's barrier hooks: a check
// runs at its own instant, after every event at or before it, with
// workers quiesced and cross traffic drained — the only instants where
// global invariants like buffer balance are well defined — so checks
// observe the network only between events, never mid-packet. The cadence
// is fixed by the first StartChecks call.
func (e *Engine) StartChecks(every time.Duration) {
	e.checksOn = true
	if e.checkHooked {
		return
	}
	e.checkHooked = true
	e.eng.Coord().AtBarrier(every, func(now sim.Time) {
		if e.checksOn {
			e.runChecks(now)
		}
	})
}

// StopChecks halts the check cadence.
func (e *Engine) StopChecks() { e.checksOn = false }

// CheckNow runs every invariant once at the current instant.
func (e *Engine) CheckNow() { e.runChecks(e.eng.Now()) }

// runChecks is always single-threaded: a barrier hook, or CheckNow
// between runs — so it appends to the shared log and parent journal
// directly.
func (e *Engine) runChecks(now sim.Time) {
	for _, inv := range e.invs {
		if err := inv.Check(now); err != nil {
			v := Violation{At: now, Invariant: inv.Name(), Err: err.Error()}
			e.violations = append(e.violations, v)
			e.log = append(e.log, Entry{At: now, Msg: fmt.Sprintf("VIOLATION %s: %s", inv.Name(), err)})
			e.obsViol.Inc()
			e.journal.Record(now, obs.KindViolation, 0, 0, 0, inv.Name())
		}
	}
}

// Violations returns every invariant failure observed so far.
func (e *Engine) Violations() []Violation { return e.violations }

// Log returns the ordered event log.
func (e *Engine) Log() []Entry { return e.log }

// LogString renders the event log one entry per line — the byte-exact
// artifact the determinism test compares across runs.
func (e *Engine) LogString() string {
	var b strings.Builder
	for _, en := range e.log {
		fmt.Fprintf(&b, "t=%s %s\n", en.At, en.Msg)
	}
	return b.String()
}

// logOn appends a log entry timestamped by eng's clock. When eng's events
// stage, the entry goes to eng's partition slot (events on distinct
// partitions run concurrently) and merges at the next barrier.
func (e *Engine) logOn(eng *sim.Engine, format string, args ...any) {
	en := Entry{At: eng.Now(), Msg: fmt.Sprintf(format, args...)}
	if eng.Staged() {
		p := eng.Part()
		e.logStage[p] = append(e.logStage[p], en)
		return
	}
	e.log = append(e.log, en)
}
