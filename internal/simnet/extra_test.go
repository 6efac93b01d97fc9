package simnet

import (
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
	for name, fn := range map[string]func(){
		"IPv4 prefix":  func() { a.SetRoute(addr.MustParsePrefix("0.0.0.0/0"), a.Ports()[0]) },
		"foreign port": func() { a.SetRoute(addr.MustParsePrefix("::/0"), b.Ports()[0]) },
		"self link":    func() { w.Connect(a, a, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	if a.FIBLen() != 0 {
		t.Fatal("FIBLen after failed inserts")
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
