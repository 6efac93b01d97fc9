package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4). Output order is fully
// deterministic: families sorted by metric name, instruments within a
// family sorted by their canonical label rendering — the property the
// golden-file test pins down.
//
// Histograms are emitted in the standard cumulative form: one bucket
// line per fixed log2 bucket that is non-empty plus the mandatory +Inf
// bucket, then _sum and _count. Empty buckets are skipped (cumulative
// counts lose nothing) to keep a 64-bucket histogram scrape readable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := r.fams[name]
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(fam.help)); err != nil {
				return err
			}
		}
		typ := fam.typ
		if typ == typeTimer {
			typ = typeHistogram // exposed as the histogram it is
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		for _, inst := range fam.order {
			if err := writeInstrument(w, name, fam.typ, inst); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeInstrument(w io.Writer, name string, typ metricType, inst *instrument) error {
	switch typ {
	case typeCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, braced(inst.labels), inst.c.Value())
		return err
	case typeGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, braced(inst.labels), formatFloat(inst.g.Value()))
		return err
	default:
		return writeHistogram(w, name, inst)
	}
}

// writeHistogram renders one histogram instrument. Bucket counts are
// loaded once into a local snapshot, and the +Inf bucket and _count are
// computed from that snapshot (not from the live count word), so the
// cumulative series is internally consistent — monotonically
// non-decreasing, +Inf == _count — even while the simulation keeps
// observing concurrently.
func writeHistogram(w io.Writer, name string, inst *instrument) error {
	var counts [NumBuckets]uint64
	var total uint64
	for i := 0; i < NumBuckets; i++ {
		counts[i] = inst.h.Bucket(i)
		total += counts[i]
	}
	sum := inst.h.Sum()
	var cum uint64
	for i := 0; i < NumBuckets-1; i++ {
		if counts[i] == 0 {
			continue
		}
		cum += counts[i]
		le := "0"
		if i > 0 {
			le = strconv.FormatInt(BucketUpperBound(i), 10)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bracedWith(inst.labels, `le="`+le+`"`), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bracedWith(inst.labels, `le="+Inf"`), total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, braced(inst.labels), sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced(inst.labels), total)
	return err
}

// braced wraps a non-empty label rendering in {}.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// bracedWith appends extra (an already-rendered label) to the label set.
func bracedWith(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// formatFloat renders a gauge value the way Prometheus clients expect:
// shortest round-trip decimal, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
