package bgp

import (
	"slices"

	"tango/internal/addr"
)

// Table numbers a network's prefix universe: the i-th prefix in
// addr.Prefix.Compare order is number i. Every speaker of one network
// indexes its RIBs by the same Table, an UPDATE names its prefix by
// number, and sorting numbers sorts prefixes. A Table is never written
// after NewTable, so speakers on partitions that run in parallel read it,
// and send its withdrawals, without a lock.
type Table struct {
	prefixes    []addr.Prefix // sorted, unique
	withdrawals []withdrawal  // withdrawals[n] withdraws number n
}

// NewTable numbers ps, which may repeat prefixes and come in any order.
func NewTable(ps ...addr.Prefix) *Table {
	sorted := slices.Clone(ps)
	slices.SortFunc(sorted, addr.Prefix.Compare)
	t := &Table{prefixes: slices.Compact(sorted)}
	t.withdrawals = make([]withdrawal, len(t.prefixes))
	for n := range t.withdrawals {
		t.withdrawals[n] = withdrawal(n)
	}
	return t
}

// find returns p's number, or -1 if p is not in the table.
func (t *Table) find(p addr.Prefix) int32 {
	if i, ok := slices.BinarySearchFunc(t.prefixes, p, addr.Prefix.Compare); ok {
		return int32(i)
	}
	return -1
}
