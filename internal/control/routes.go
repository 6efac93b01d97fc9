package control

import "sort"

// Composite path table (§6, "from Tango of 2 to Tango of N"): when more
// than two sites deploy Tango pairwise, end-to-end routes between two
// sites are either the direct pairwise deployment or a composition of
// segments through relay sites, RON-style. The table enumerates both and
// scores them from each segment's live measurement state, so the overlay
// controller can route around a degradation that every direct wide-area
// path shares.
//
// Scores are sums of per-segment smoothed estimates. Each segment's OWD
// lives in its own receiver's clock domain (true delay plus that pair's
// constant clock offset), and the offsets telescope along a composition:
// (B−A) + (C−B) = C−A. Every route between the same two sites — direct
// or relayed, through any relay — therefore carries the same constant
// offset C−A, and comparing composite scores *between routes of the same
// site pair* is exact, the same argument the paper makes for comparing
// paths of one pair. Scores for different site pairs are not comparable,
// but the table never needs to compare them.

// SegmentEstimate is one overlay segment's current score as seen by the
// receiving side's monitor: smoothed one-way delay and delay variation
// in milliseconds. Valid is false until the segment has samples (or when
// its paths have all gone stale), which poisons any route using it.
type SegmentEstimate struct {
	OWDMs    float64
	JitterMs float64
	Valid    bool
}

// CompositeRoute is one end-to-end overlay route: direct (Via empty) or
// relayed through the named intermediate sites in order. OWDMs and
// JitterMs are sums over the segments; Valid reports whether every
// segment currently has a live estimate.
type CompositeRoute struct {
	Src, Dst string
	Via      []string
	OWDMs    float64
	JitterMs float64
	Valid    bool
}

// Direct reports whether the route is the plain pairwise deployment.
func (r CompositeRoute) Direct() bool { return len(r.Via) == 0 }

// Segments returns the route's site sequence including both endpoints.
func (r CompositeRoute) Segments() []string {
	out := make([]string, 0, len(r.Via)+2)
	out = append(out, r.Src)
	out = append(out, r.Via...)
	return append(out, r.Dst)
}

// CompositeTable scores end-to-end routes over a mesh of pairwise Tango
// deployments. Links are the deployed pairs; Source supplies the live
// per-segment estimate (typically from the receiving member's Monitor).
type CompositeTable struct {
	adj map[string]map[string]bool

	// Source returns the current estimate for the segment from one site
	// to an adjacent one. Nil or missing segments score as invalid.
	Source func(from, to string) SegmentEstimate
}

// NewCompositeTable returns an empty table.
func NewCompositeTable() *CompositeTable {
	return &CompositeTable{adj: make(map[string]map[string]bool)}
}

// AddLink registers a deployed pair between two sites (both directions).
func (t *CompositeTable) AddLink(a, b string) {
	if t.adj[a] == nil {
		t.adj[a] = make(map[string]bool)
	}
	if t.adj[b] == nil {
		t.adj[b] = make(map[string]bool)
	}
	t.adj[a][b] = true
	t.adj[b][a] = true
}

// Sites returns all registered site names, sorted.
func (t *CompositeTable) Sites() []string {
	out := make([]string, 0, len(t.adj))
	for s := range t.adj {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Routes enumerates the direct route and every one-relay route from src
// to dst — the paper's Tango-of-N composition is a single hand-off;
// longer chains multiply the provisioning cost (one pinned prefix per
// exposed path per segment) for vanishing returns — and scores each from
// the Source estimates. The result is sorted best-first: valid routes
// before invalid, then ascending summed OWD, then fewer segments, then
// lexicographic relay names — a deterministic total order so
// equal-scoring routes never flap.
func (t *CompositeTable) Routes(src, dst string) []CompositeRoute {
	if src == dst || t.adj[src] == nil || t.adj[dst] == nil {
		return nil
	}
	var out []CompositeRoute
	for _, next := range neighborsSorted(t.adj[src]) {
		if next == dst {
			out = append(out, t.score(src, dst, nil))
		} else if t.adj[next][dst] {
			out = append(out, t.score(src, dst, []string{next}))
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Valid != b.Valid {
			return a.Valid
		}
		if a.Valid && a.OWDMs != b.OWDMs {
			return a.OWDMs < b.OWDMs
		}
		if len(a.Via) != len(b.Via) {
			return len(a.Via) < len(b.Via)
		}
		for k := range a.Via {
			if a.Via[k] != b.Via[k] {
				return a.Via[k] < b.Via[k]
			}
		}
		return false
	})
	return out
}

// Best returns the lowest-scoring valid route, or ok=false when no route
// has live estimates on every segment.
func (t *CompositeTable) Best(src, dst string) (CompositeRoute, bool) {
	for _, r := range t.Routes(src, dst) {
		if r.Valid {
			return r, true
		}
	}
	return CompositeRoute{}, false
}

func (t *CompositeTable) score(src, dst string, via []string) CompositeRoute {
	r := CompositeRoute{Src: src, Dst: dst, Via: via, Valid: true}
	seq := r.Segments()
	for i := 0; i+1 < len(seq); i++ {
		var est SegmentEstimate
		if t.Source != nil {
			est = t.Source(seq[i], seq[i+1])
		}
		if !est.Valid {
			r.Valid = false
			r.OWDMs, r.JitterMs = 0, 0
			return r
		}
		r.OWDMs += est.OWDMs
		r.JitterMs += est.JitterMs
	}
	return r
}

func neighborsSorted(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
