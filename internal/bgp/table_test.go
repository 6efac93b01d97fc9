package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tango/internal/addr"
	"tango/internal/sim"
)

// testTable numbers every /48 of 2001:db8::/40, which holds every prefix
// this package's tests route: the bare test speakers all index it, as a
// network's speakers index the table its plan numbered.
var testTable = func() *Table {
	block := addr.MustParsePrefix("2001:db8::/40")
	var ps []addr.Prefix
	for i := range 256 {
		p, err := block.Subnet(48, i)
		if err != nil {
			panic(err)
		}
		ps = append(ps, p)
	}
	return NewTable(ps...)
}()

// announce and withdraw build the UPDATE a peer sends for p, numbered
// by testTable: an export set, or the table's withdrawal.
func announce(p addr.Prefix, path Path) *exportSet {
	return &exportSet{Attrs: Attrs{Path: path}, num: testNum(p)}
}

func withdraw(p addr.Prefix) *withdrawal { return &testTable.withdrawals[testNum(p)] }

func testNum(p addr.Prefix) int32 {
	n := testTable.find(p)
	if n < 0 {
		panic(fmt.Sprintf("%v is not in testTable", p))
	}
	return n
}

// TestTableNumbersInCompareOrder: a table numbers its prefixes in
// Compare order whatever order and repetitions they came in, without
// touching its input, and finds exactly the prefixes it numbered.
func TestTableNumbersInCompareOrder(t *testing.T) {
	var in []addr.Prefix
	for _, s := range []string{"2001:db8:1::/48", "2001:db8::/32", "10.0.0.0/8", "2001:db8:1::/56", "3000::/24", "10.0.0.0/16"} {
		p := addr.MustParsePrefix(s)
		in = append(in, p, p)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	kept := slices.Clone(in)
	tab := NewTable(in...)
	if !slices.Equal(in, kept) {
		t.Fatal("NewTable reordered its input")
	}
	if len(tab.prefixes) != 6 {
		t.Fatalf("%d numbers for 6 distinct prefixes: %v", len(tab.prefixes), tab.prefixes)
	}
	for n, p := range tab.prefixes {
		if n > 0 && tab.prefixes[n-1].Compare(p) >= 0 {
			t.Fatalf("number %d (%v) does not follow number %d (%v) in Compare order", n, p, n-1, tab.prefixes[n-1])
		}
		if got := tab.find(p); got != int32(n) {
			t.Fatalf("find(%v) = %d, want %d", p, got, n)
		}
	}
	for _, s := range []string{"2001:db8:2::/48", "2001:db8::/33", "11.0.0.0/8", "::/0"} {
		if got := tab.find(addr.MustParsePrefix(s)); got != -1 {
			t.Fatalf("find(%s) = %d for a prefix the table lacks, want -1", s, got)
		}
	}
	if got := NewTable().find(addr.MustParsePrefix("::/0")); got != -1 {
		t.Fatalf("empty table: find = %d, want -1", got)
	}
}

// TestOriginateOutsideTablePanics: originating a prefix the network's
// table lacks is a wiring error and names the prefix, while the rare
// lookups by prefix (Best, Originated, Withdraw) answer for it as for a
// prefix never heard of.
func TestOriginateOutsideTablePanics(t *testing.T) {
	sp := NewSpeaker(sim.NewEngine(), testTable, "x", 1, 1)
	outside := addr.MustParsePrefix("2001:db9:1::/48")
	sp.Withdraw(outside)
	_, orig := sp.Originated(outside)
	if _, best := sp.Best(outside); orig || best {
		t.Fatal("a prefix outside the table has a route")
	}
	for _, originate := range []func(){
		func() { sp.Originate(outside) },
		func() { sp.OriginateWithPath(outside, Path{7}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, outside.String()) || !strings.Contains(msg, "x(AS1)") {
					t.Fatalf("panic %q, want one naming the speaker and %v", msg, outside)
				}
			}()
			originate()
		}()
	}
	if sp.covered() != 0 {
		t.Fatalf("a refused origination grew the RIB to %d numbers", sp.covered())
	}
}

// TestConnectAcrossTablesPanics: two speakers that number prefixes by
// different tables cannot share a session, since an UPDATE names its
// prefixes by number.
func TestConnectAcrossTablesPanics(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, NewTable(addr.MustParsePrefix("2001:db8:1::/48")), "b", 200, 2)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "a<->b") {
			t.Fatalf("panic %q, want one naming the session a<->b", msg)
		}
	}()
	cA, cB := pairCfg(RelProvider)
	Connect(a, b, cA, cB)
}
