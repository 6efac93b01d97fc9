package control

import (
	"reflect"
	"testing"
)

// triTable is a three-site mesh with every pair deployed; ests supplies
// directed segment scores keyed "from>to".
func triTable(ests map[string]SegmentEstimate) *CompositeTable {
	t := NewCompositeTable()
	t.AddLink("ny", "chi")
	t.AddLink("chi", "la")
	t.AddLink("ny", "la")
	t.Source = func(from, to string) SegmentEstimate {
		return ests[from+">"+to]
	}
	return t
}

func TestCompositeRoutesEnumeration(t *testing.T) {
	tab := triTable(map[string]SegmentEstimate{
		"ny>la":  {OWDMs: 60, JitterMs: 2, Valid: true},
		"ny>chi": {OWDMs: 20, JitterMs: 1, Valid: true},
		"chi>la": {OWDMs: 30, JitterMs: 1.5, Valid: true},
	})
	routes := tab.Routes("ny", "la")
	if len(routes) != 2 {
		t.Fatalf("routes = %+v", routes)
	}
	// Relayed composition sums per-segment scores and wins here.
	best := routes[0]
	if !reflect.DeepEqual(best.Via, []string{"chi"}) || best.OWDMs != 50 || best.JitterMs != 2.5 {
		t.Fatalf("best = %+v", best)
	}
	if best.Direct() {
		t.Fatal("relayed route claims to be direct")
	}
	if got := best.Segments(); !reflect.DeepEqual(got, []string{"ny", "chi", "la"}) {
		t.Fatalf("segments = %v", got)
	}
	if routes[1].Via != nil || routes[1].OWDMs != 60 {
		t.Fatalf("direct route = %+v", routes[1])
	}

	if b, ok := tab.Best("ny", "la"); !ok || b.OWDMs != 50 {
		t.Fatalf("Best = %+v ok=%v", b, ok)
	}
}

func TestCompositeDirectWinsWhenFaster(t *testing.T) {
	tab := triTable(map[string]SegmentEstimate{
		"ny>la":  {OWDMs: 40, Valid: true},
		"ny>chi": {OWDMs: 20, Valid: true},
		"chi>la": {OWDMs: 30, Valid: true},
	})
	b, ok := tab.Best("ny", "la")
	if !ok || !b.Direct() || b.OWDMs != 40 {
		t.Fatalf("Best = %+v ok=%v", b, ok)
	}
}

func TestCompositeInvalidSegmentPoisonsRoute(t *testing.T) {
	// The relay route's second segment has no live estimate: the route
	// is enumerated (the deployment exists) but sorts last and never
	// wins Best.
	tab := triTable(map[string]SegmentEstimate{
		"ny>la":  {OWDMs: 500, Valid: true},
		"ny>chi": {OWDMs: 20, Valid: true},
		"chi>la": {Valid: false},
	})
	routes := tab.Routes("ny", "la")
	if len(routes) != 2 {
		t.Fatalf("routes = %+v", routes)
	}
	if !routes[0].Direct() || routes[1].Valid {
		t.Fatalf("sort with invalid route: %+v", routes)
	}
	b, ok := tab.Best("ny", "la")
	if !ok || !b.Direct() {
		t.Fatalf("Best = %+v ok=%v", b, ok)
	}

	// No valid route at all.
	tab.Source = func(string, string) SegmentEstimate { return SegmentEstimate{} }
	if _, ok := tab.Best("ny", "la"); ok {
		t.Fatal("Best succeeded with no live segments")
	}
}

func TestCompositeDirectionalEstimates(t *testing.T) {
	// Estimates are directed: ny->chi and chi->ny may differ (each is
	// measured by its own receiver in its own clock domain).
	tab := triTable(map[string]SegmentEstimate{
		"ny>chi": {OWDMs: 10, Valid: true},
		"chi>ny": {OWDMs: 99, Valid: true},
		"chi>la": {OWDMs: 10, Valid: true},
		"la>chi": {OWDMs: 99, Valid: true},
		"ny>la":  {OWDMs: 50, Valid: true},
		"la>ny":  {OWDMs: 50, Valid: true},
	})
	fwd, _ := tab.Best("ny", "la")
	rev, _ := tab.Best("la", "ny")
	if fwd.Direct() || fwd.OWDMs != 20 {
		t.Fatalf("forward = %+v", fwd)
	}
	if !rev.Direct() || rev.OWDMs != 50 {
		t.Fatalf("reverse = %+v", rev)
	}
}

// TestCompositeMaxRelays: a route has at most one relay, so on the line
// topology a-b-c-d, where reaching d from a needs two, there is none.
func TestCompositeMaxRelays(t *testing.T) {
	tab := NewCompositeTable()
	tab.AddLink("a", "b")
	tab.AddLink("b", "c")
	tab.AddLink("c", "d")
	tab.Source = func(from, to string) SegmentEstimate {
		return SegmentEstimate{OWDMs: 10, Valid: true}
	}
	if got := tab.Routes("a", "d"); len(got) != 0 {
		t.Fatalf("two-relay route found: %+v", got)
	}
}

func TestCompositeDeterministicOrder(t *testing.T) {
	// Two relay routes with identical scores: tie broken by relay name,
	// not map iteration order.
	tab := NewCompositeTable()
	tab.AddLink("src", "dst")
	tab.AddLink("src", "zrelay")
	tab.AddLink("zrelay", "dst")
	tab.AddLink("src", "arelay")
	tab.AddLink("arelay", "dst")
	tab.Source = func(from, to string) SegmentEstimate {
		return SegmentEstimate{OWDMs: 10, Valid: true}
	}
	for i := 0; i < 16; i++ {
		routes := tab.Routes("src", "dst")
		if len(routes) != 3 {
			t.Fatalf("routes = %+v", routes)
		}
		if !routes[0].Direct() ||
			!reflect.DeepEqual(routes[1].Via, []string{"arelay"}) ||
			!reflect.DeepEqual(routes[2].Via, []string{"zrelay"}) {
			t.Fatalf("order unstable: %+v", routes)
		}
	}
	if got := tab.Sites(); !reflect.DeepEqual(got, []string{"arelay", "dst", "src", "zrelay"}) {
		t.Fatalf("sites = %v", got)
	}
}

func TestCompositeEdgeCases(t *testing.T) {
	tab := NewCompositeTable()
	tab.AddLink("a", "b")
	if got := tab.Routes("a", "a"); got != nil {
		t.Fatalf("self route = %+v", got)
	}
	if got := tab.Routes("a", "nowhere"); got != nil {
		t.Fatalf("unknown dst = %+v", got)
	}
	// Nil Source scores everything invalid but still enumerates.
	routes := tab.Routes("a", "b")
	if len(routes) != 1 || routes[0].Valid {
		t.Fatalf("nil source = %+v", routes)
	}
}
