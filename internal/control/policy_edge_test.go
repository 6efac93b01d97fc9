package control

import (
	"testing"
	"time"

	"tango/internal/sim"
)

// TestMinOWDEdgeCases pins the exact boundary semantics of MinOWD.Choose.
// Each case is a sequence of decisions against one policy instance, since
// dwell behaviour depends on the previous switch.
func TestMinOWDEdgeCases(t *testing.T) {
	type step struct {
		now  sim.Time
		cur  uint8
		ests []PathEstimate
		want uint8
	}
	cases := []struct {
		name   string
		policy MinOWD
		steps  []step
	}{
		{
			// Every estimate aged out: no candidate at all, hold the
			// current path rather than oscillating onto a guess.
			name:   "all stale holds current",
			policy: MinOWD{HysteresisMs: 0.5, StaleAfter: 2 * time.Second},
			steps: []step{
				{now: 10 * time.Second, cur: 1, want: 1, ests: []PathEstimate{
					est(1, 30, 0), est(2, 20, time.Second),
				}},
			},
		},
		{
			// An estimate exactly StaleAfter old is still usable: the
			// staleness test is strictly greater-than.
			name:   "estimate at exact stale boundary still counts",
			policy: MinOWD{HysteresisMs: 0.5, StaleAfter: 2 * time.Second},
			steps: []step{
				{now: 10 * time.Second, cur: 1, want: 2, ests: []PathEstimate{
					est(1, 30, 10*time.Second), est(2, 20, 8*time.Second),
				}},
			},
		},
		{
			// A gain of exactly the hysteresis margin switches: the
			// comparison is inclusive (bestOWD <= cur - hysteresis).
			name:   "tie at exact hysteresis margin switches",
			policy: MinOWD{HysteresisMs: 2.0},
			steps: []step{
				{now: time.Second, cur: 1, want: 2, ests: []PathEstimate{
					est(1, 30, time.Second), est(2, 28, time.Second),
				}},
			},
		},
		{
			// A hair under the margin stays put.
			name:   "just under hysteresis margin holds",
			policy: MinOWD{HysteresisMs: 2.0},
			steps: []step{
				{now: time.Second, cur: 1, want: 1, ests: []PathEstimate{
					est(1, 30, time.Second), est(2, 28.001, time.Second),
				}},
			},
		},
		{
			// Dwell expires on the very tick it is measured: the guard is
			// now-lastSwitch < MinDwell, so a decision at exactly
			// lastSwitch+MinDwell may switch.
			name:   "dwell expiring same tick allows switch",
			policy: MinOWD{HysteresisMs: 0.5, MinDwell: 5 * time.Second},
			steps: []step{
				{now: time.Second, cur: 1, want: 2, ests: []PathEstimate{
					est(1, 30, time.Second), est(2, 20, time.Second),
				}},
				// One tick before expiry: held.
				{now: 6*time.Second - time.Millisecond, cur: 2, want: 2, ests: []PathEstimate{
					est(1, 10, 5*time.Second), est(2, 20, 5*time.Second),
				}},
				// Exactly at expiry: free to move.
				{now: 6 * time.Second, cur: 2, want: 1, ests: []PathEstimate{
					est(1, 10, 6*time.Second), est(2, 20, 6*time.Second),
				}},
			},
		},
		{
			// The current path's estimate is marked invalid (e.g. its
			// tunnel vanished): evacuate immediately, even mid-dwell and
			// even for a sub-hysteresis gain.
			name:   "current invalid moves immediately despite dwell",
			policy: MinOWD{HysteresisMs: 5, MinDwell: time.Minute},
			steps: []step{
				{now: time.Second, cur: 1, want: 2, ests: []PathEstimate{
					est(1, 30, time.Second), est(2, 20, time.Second),
				}},
				{now: 2 * time.Second, cur: 2, want: 1, ests: []PathEstimate{
					est(1, 19.9, 2*time.Second),
					{ID: 2, OWDMs: 20, UpdatedAt: 2 * time.Second, Valid: false},
				}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.policy
			for i, s := range tc.steps {
				if got := p.Choose(s.now, s.cur, s.ests); got != s.want {
					t.Fatalf("step %d: Choose(now=%s, cur=%d) = %d, want %d",
						i, s.now, s.cur, got, s.want)
				}
			}
		})
	}
}

// jest builds an estimate with an explicit jitter for MinJitter cases.
func jest(id uint8, owd, jitter float64, at sim.Time) PathEstimate {
	return PathEstimate{ID: id, OWDMs: owd, JitterMs: jitter, UpdatedAt: at, Valid: true}
}

// TestMinJitterEdgeCases pins MinJitter's damping: the policy gets the
// same dwell and staleness treatment as MinOWD, with no margin.
func TestMinJitterEdgeCases(t *testing.T) {
	type step struct {
		now  sim.Time
		cur  uint8
		ests []PathEstimate
		want uint8
	}
	cases := []struct {
		name   string
		policy MinJitter
		steps  []step
	}{
		{
			// Dwell holds a clearly better path until the window expires
			// (guard is now-lastSwitch < MinDwell, exact expiry may move).
			name:   "dwell blocks until exact expiry",
			policy: MinJitter{MinDwell: 5 * time.Second},
			steps: []step{
				{now: time.Second, cur: 1, want: 2, ests: []PathEstimate{
					jest(1, 30, 5, time.Second), jest(2, 30, 1, time.Second),
				}},
				{now: 6*time.Second - time.Millisecond, cur: 2, want: 2, ests: []PathEstimate{
					jest(1, 30, 0.2, 5*time.Second), jest(2, 30, 5, 5*time.Second),
				}},
				{now: 6 * time.Second, cur: 2, want: 1, ests: []PathEstimate{
					jest(1, 30, 0.2, 6*time.Second), jest(2, 30, 5, 6*time.Second),
				}},
			},
		},
		{
			// All estimates stale: hold rather than guess. At the exact
			// staleness boundary the estimate still counts.
			name:   "staleness: all stale holds, boundary counts",
			policy: MinJitter{StaleAfter: 2 * time.Second},
			steps: []step{
				{now: 10 * time.Second, cur: 1, want: 1, ests: []PathEstimate{
					jest(1, 30, 5, 0), jest(2, 30, 1, time.Second),
				}},
				{now: 10 * time.Second, cur: 1, want: 2, ests: []PathEstimate{
					jest(1, 30, 5, 10*time.Second), jest(2, 30, 1, 8*time.Second),
				}},
			},
		},
		{
			// The current path going invalid evacuates immediately, even
			// mid-dwell.
			name:   "current invalid moves immediately despite dwell",
			policy: MinJitter{MinDwell: time.Minute},
			steps: []step{
				{now: time.Second, cur: 1, want: 2, ests: []PathEstimate{
					jest(1, 30, 8, time.Second), jest(2, 30, 1, time.Second),
				}},
				{now: 2 * time.Second, cur: 2, want: 1, ests: []PathEstimate{
					jest(1, 30, 0.9, 2*time.Second),
					{ID: 2, OWDMs: 30, JitterMs: 1, UpdatedAt: 2 * time.Second, Valid: false},
				}},
			},
		},
		{
			// The OWD penalty still gates candidates: a calm path that is
			// too slow is never chosen, whatever its jitter.
			name:   "owd penalty excludes calm-but-slow path",
			policy: MinJitter{MaxOWDPenaltyMs: 2},
			steps: []step{
				{now: time.Second, cur: 1, want: 1, ests: []PathEstimate{
					jest(1, 30, 2, time.Second), jest(2, 40, 0.1, time.Second),
				}},
			},
		},
		{
			// No usable estimates at all: hold current.
			name:   "no estimates holds current",
			policy: MinJitter{},
			steps: []step{
				{now: time.Second, cur: 7, want: 7, ests: nil},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.policy
			for i, s := range tc.steps {
				if got := p.Choose(s.now, s.cur, s.ests); got != s.want {
					t.Fatalf("step %d: Choose(now=%s, cur=%d) = %d, want %d",
						i, s.now, s.cur, got, s.want)
				}
			}
		})
	}
}

// TestDampingIsOneRule runs one table against both damped policies: the
// value column is the path's OWD for MinOWD and its jitter for MinJitter
// (at equal OWD), and every step must come out the same, because the
// rule — keep, evacuate, dwell, margin — is damping.settle for both.
// MinJitter's margin is 0, so the rows that turn on it run on MinOWD only.
func TestDampingIsOneRule(t *testing.T) {
	type path struct {
		id    uint8
		value float64
		at    sim.Time
		dead  bool // estimate marked invalid
	}
	type step struct {
		now   sim.Time
		cur   uint8
		paths []path
		want  uint8
	}
	const s = time.Second
	cases := []struct {
		name         string
		margin       float64
		marginOnly   bool // the outcome turns on a non-zero margin
		dwell, stale time.Duration
		steps        []step
	}{
		{name: "no usable estimate keeps the current path", margin: 0.5, stale: 2 * s, steps: []step{
			{now: 10 * s, cur: 1, want: 1, paths: []path{{1, 30, 0, false}, {2, 20, s, false}}},
			{now: 10 * s, cur: 1, want: 1, paths: []path{{1, 30, 10 * s, true}, {2, 20, 10 * s, true}}},
			{now: 10 * s, cur: 7, want: 7},
		}},
		{name: "an estimate exactly at the stale bound still counts", margin: 0.5, stale: 2 * s, steps: []step{
			{now: 10 * s, cur: 1, want: 2, paths: []path{{1, 30, 10 * s, false}, {2, 20, 8 * s, false}}},
		}},
		{name: "the margin is inclusive and absolute", margin: 2, marginOnly: true, steps: []step{
			{now: s, cur: 1, want: 1, paths: []path{{1, 30, s, false}, {2, 28.001, s, false}}},
			{now: 2 * s, cur: 1, want: 2, paths: []path{{1, 30, 2 * s, false}, {2, 28, 2 * s, false}}},
			// Shifting every value by a clock offset changes nothing.
			{now: 3 * s, cur: 2, want: 2, paths: []path{{1, 1726.001, 3 * s, false}, {2, 1728, 3 * s, false}}},
			{now: 4 * s, cur: 2, want: 1, paths: []path{{1, 1726, 4 * s, false}, {2, 1728, 4 * s, false}}},
		}},
		{name: "the first move is free, the next waits out the dwell to the tick", margin: 0.5, dwell: 5 * s, steps: []step{
			{now: s, cur: 1, want: 2, paths: []path{{1, 30, s, false}, {2, 20, s, false}}},
			{now: 6*s - time.Millisecond, cur: 2, want: 2, paths: []path{{1, 10, 5 * s, false}, {2, 20, 5 * s, false}}},
			{now: 6 * s, cur: 2, want: 1, paths: []path{{1, 10, 6 * s, false}, {2, 20, 6 * s, false}}},
		}},
		{name: "confirming the current path starts the dwell clock at zero", margin: 0.5, dwell: 5 * s, steps: []step{
			{now: s, cur: 1, want: 1, paths: []path{{1, 20, s, false}, {2, 30, s, false}}},
			{now: 2 * s, cur: 1, want: 1, paths: []path{{1, 30, 2 * s, false}, {2, 20, 2 * s, false}}},
			{now: 5 * s, cur: 1, want: 2, paths: []path{{1, 30, 5 * s, false}, {2, 20, 5 * s, false}}},
		}},
		{name: "a current path gone invalid or stale is left at once", margin: 5, dwell: time.Minute, stale: 2 * s, steps: []step{
			{now: s, cur: 1, want: 2, paths: []path{{1, 30, s, false}, {2, 20, s, false}}},
			// Mid-dwell, for a gain under the margin: invalid current.
			{now: 2 * s, cur: 2, want: 1, paths: []path{{1, 19.9, 2 * s, false}, {2, 20, 2 * s, true}}},
			// And again: stale current, worse candidate.
			{now: 5 * s, cur: 1, want: 2, paths: []path{{1, 19.9, 2 * s, false}, {2, 25, 5 * s, false}}},
			// A current path the table has never heard of.
			{now: 6 * s, cur: 9, want: 2, paths: []path{{2, 25, 6 * s, false}}},
		}},
	}
	policies := []struct {
		name   string
		margin bool
		make   func(margin float64, dwell, stale time.Duration) Policy
		est    func(p path) PathEstimate
	}{
		{"MinOWD", true,
			func(m float64, d, st time.Duration) Policy {
				return &MinOWD{HysteresisMs: m, MinDwell: d, StaleAfter: st}
			},
			func(p path) PathEstimate {
				return PathEstimate{ID: p.id, OWDMs: p.value, UpdatedAt: p.at, Valid: !p.dead}
			}},
		{"MinJitter", false,
			func(_ float64, d, st time.Duration) Policy {
				return &MinJitter{MinDwell: d, StaleAfter: st}
			},
			func(p path) PathEstimate {
				return PathEstimate{ID: p.id, OWDMs: 30, JitterMs: p.value, UpdatedAt: p.at, Valid: !p.dead}
			}},
	}
	for _, pol := range policies {
		for _, tc := range cases {
			if tc.marginOnly && !pol.margin {
				continue
			}
			t.Run(pol.name+"/"+tc.name, func(t *testing.T) {
				p := pol.make(tc.margin, tc.dwell, tc.stale)
				for i, st := range tc.steps {
					ests := make([]PathEstimate, len(st.paths))
					for j, pa := range st.paths {
						ests[j] = pol.est(pa)
					}
					if got := p.Choose(st.now, st.cur, ests); got != st.want {
						t.Fatalf("step %d: Choose(now=%s, cur=%d) = %d, want %d", i, st.now, st.cur, got, st.want)
					}
				}
			})
		}
	}
}
