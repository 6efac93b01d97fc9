package simnet

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"tango/internal/addr"
)

func TestNodeSchedule(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	fired := false
	a.Schedule(10*time.Millisecond, func() { fired = true })
	w.Run(time.Second)
	if !fired {
		t.Fatal("node-scoped schedule did not fire")
	}
}

func TestSetRouteValidation(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, nil, nil)
	for want, fn := range map[string]func(){
		"simnet: route on a for non-IPv6 prefix 0.0.0.0/0": func() { a.SetRoute(addr.MustParsePrefix("0.0.0.0/0"), a.Ports()[0]) },
		"simnet: route on a via foreign port":              func() { a.SetRoute(addr.MustParsePrefix("::/0"), b.Ports()[0]) },
		"simnet: self-link":                                func() { w.Connect(a, a, nil, nil) },
	} {
		func() {
			defer func() {
				if got, _ := recover().(string); !strings.HasPrefix(got, want) {
					t.Fatalf("panicked with %q, want %q", got, want)
				}
			}()
			fn()
		}()
	}
	for _, dst := range []string{"2001:db8::1", "10.0.0.1"} {
		if _, _, ok := a.LookupRoute(netip.MustParseAddr(dst)); ok {
			t.Fatalf("a failed insert left a route to %s", dst)
		}
	}
}

func TestDelRoute(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, nil, nil)
	p := addr.MustParsePrefix("2001:db8::/32")
	a.SetRoute(p, a.Ports()[0])
	if !a.DelRoute(p) || a.DelRoute(p) {
		t.Fatal("DelRoute semantics wrong")
	}
}
