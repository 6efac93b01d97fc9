package bgp

import (
	"net/netip"
	"reflect"
	"testing"
	"unsafe"

	"tango/internal/addr"
)

// TestRoutingStateLayout holds the routing state to its sizes: the
// simulated internet keeps a RIB entry per router and prefix and an
// Adj-RIB entry per session and prefix, so a byte on either is paid
// prefixes × routers × sessions times. A route is two pointers, its
// attributes and its session, so a RIB holds it as a value, not as a
// heap object. A Prefix carries no pointer, so the maps keyed by it are
// never scanned by the collector.
func TestRoutingStateLayout(t *testing.T) {
	if n := unsafe.Sizeof(addr.Prefix{}); n != 24 {
		t.Errorf("addr.Prefix is %d B, want 24", n)
	}
	if hasPointer(reflect.TypeFor[addr.Prefix]()) {
		t.Error("addr.Prefix holds a pointer")
	}
	if !hasPointer(reflect.TypeFor[netip.Prefix]()) {
		t.Error("the walk misses netip.Prefix's zone pointer")
	}
	if n := unsafe.Sizeof(Route{}); n != 16 {
		t.Errorf("Route is %d B, want 16", n)
	}
	if n := unsafe.Sizeof(adjEntry{}); n != 16 {
		t.Errorf("adjEntry is %d B, want 16", n)
	}
	if n := unsafe.Sizeof(ribEntry{}); n > 32 {
		t.Errorf("ribEntry is %d B, want at most 32", n)
	}
}

// hasPointer reports whether a value of type typ holds a pointer the
// garbage collector must follow.
func hasPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointer(typ.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true // pointers, slices, strings, maps, chans, funcs, interfaces
}
