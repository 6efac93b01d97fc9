package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(time.Second, KindQueueDrop, 0, 0, 64, "line")
	if j.Total() != 0 || j.Tail(5) != nil {
		t.Fatal("nil journal must read as empty")
	}
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRingWrap(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(time.Duration(i)*time.Second, KindPathSwitch, uint8(i), uint8(i+1), int64(i), "ny")
	}
	if j.Total() != 10 {
		t.Fatalf("total %d, want 10", j.Total())
	}
	tail := j.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("tail holds %d records, want 4", len(tail))
	}
	for i, r := range tail {
		wantSeq := uint64(6 + i)
		if r.Seq != wantSeq {
			t.Errorf("tail[%d].Seq = %d, want %d", i, r.Seq, wantSeq)
		}
	}
	// A bounded tail returns only the most recent n.
	last := j.Tail(2)
	if len(last) != 2 || last[1].Seq != 9 {
		t.Fatalf("Tail(2) = %+v, want 2 records ending at seq 9", last)
	}
	// Asking for more than the ring holds returns what is held.
	if got := j.Tail(100); len(got) != 4 {
		t.Fatalf("Tail(100) holds %d records, want 4", len(got))
	}
}

func TestJournalTargetTruncation(t *testing.T) {
	j := NewJournal(2)
	long := strings.Repeat("x", TargetLen+25)
	j.Record(0, KindViolation, 0, 0, 0, long)
	got := j.Tail(1)[0].Target()
	if got != long[:TargetLen] {
		t.Fatalf("target = %q, want first %d bytes of input", got, TargetLen)
	}
}

func TestJournalJSONDeterministicAndValid(t *testing.T) {
	fill := func() *Journal {
		j := NewJournal(8)
		j.Record(time.Second, KindPathSwitch, 1, 3, -250000, "ny")
		j.Record(2*time.Second, KindFaultApply, 0, 0, int64(time.Minute), "down trunk/ny/GTT")
		j.Record(3*time.Second, KindQueueDrop, 0, 0, 1064, "trunk/la/GTT")
		j.Record(4*time.Second, KindViolation, 0, 0, 0, "conservation")
		return j
	}
	var a, b bytes.Buffer
	if err := fill().WriteJSON(&a, 0); err != nil {
		t.Fatal(err)
	}
	if err := fill().WriteJSON(&b, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical journals must serialize byte-identically")
	}
	var decoded []struct {
		Seq    uint64 `json:"seq"`
		AtNs   int64  `json:"at_ns"`
		Kind   string `json:"kind"`
		A, B   uint8
		V      int64  `json:"v"`
		Target string `json:"target"`
	}
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, a.String())
	}
	if len(decoded) != 4 {
		t.Fatalf("decoded %d records, want 4", len(decoded))
	}
	if decoded[0].Kind != "path_switch" || decoded[0].V != -250000 || decoded[0].Target != "ny" {
		t.Fatalf("first record decoded wrong: %+v", decoded[0])
	}
	if decoded[2].Kind != "queue_drop" || decoded[2].V != 1064 {
		t.Fatalf("queue_drop decoded wrong: %+v", decoded[2])
	}
}

// writeOne records target into a fresh journal and returns WriteJSON's
// output and the target it decodes to, failing on invalid JSON.
func writeOne(t *testing.T, target string) (out, decoded string) {
	t.Helper()
	j := NewJournal(1)
	j.Record(0, KindPathSwitch, 0, 0, 0, target)
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		Target string `json:"target"`
	}
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil || len(recs) != 1 || !utf8.Valid(buf.Bytes()) {
		t.Fatalf("target %q renders as invalid JSON (%v):\n%s", target, err, buf.String())
	}
	return buf.String(), recs[0].Target
}

// TestJournalJSONAnyTarget: /trace is valid JSON whatever bytes a target
// holds. Invalid UTF-8 and non-printable runes render as '.', the
// TargetLen cut never splits a rune, and every other target renders
// exactly as before: %q of its bytes, with no HTML escaping of E14's
// "d/<i>/<src>-><dst>".
func TestJournalJSONAnyTarget(t *testing.T) {
	a38, a39 := strings.Repeat("a", TargetLen-2), strings.Repeat("a", TargetLen-1)
	cases := []struct{ name, in, want string }{
		{"ascii", "trunk/la/GTT", "trunk/la/GTT"},
		{"html and quotes", `d/<0>/a->b "q" \`, `d/<0>/a->b "q" \`},
		{"printable non-ascii", "zürich→東京", "zürich→東京"},
		{"control chars", "bad\x01name\x7f", "bad.name."},
		{"cut inside a 2-byte rune", a39 + "é", a39},
		{"cut inside a 4-byte rune", a38 + "\U0001F600", a38},
		{"invalid byte", "bad\xffname", "bad.name"},
		{"astral non-printable", "x\U000E0001y", "x.y"},
		{"bmp non-printable", "soft\u00adhyphen", "soft.hyphen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, got := writeOne(t, tc.in)
			if got != tc.want {
				t.Fatalf("target %q decodes to %q, want %q", tc.in, got, tc.want)
			}
			if want := fmt.Sprintf(`"target":%q}`, tc.want); !strings.Contains(out, want) {
				t.Fatalf("output %s does not render the target as %s", out, want)
			}
		})
	}
}

// FuzzJournalJSON: whatever target is recorded, WriteJSON is valid JSON,
// the target decodes to at most TargetLen bytes, and a printable,
// valid-UTF-8 target that fits comes back exactly.
func FuzzJournalJSON(f *testing.F) {
	for _, s := range []string{"trunk/la/GTT", "d/<0>/a->b", strings.Repeat("a", TargetLen-1) + "é", "bad\xffname", "x\U000E0001y", `"\`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, target string) {
		_, got := writeOne(t, target)
		if len(got) > TargetLen {
			t.Fatalf("target %q decodes to %d bytes, over TargetLen", target, len(got))
		}
		printable := utf8.ValidString(target) && !strings.ContainsFunc(target, func(r rune) bool { return !strconv.IsPrint(r) })
		if printable && len(target) <= TargetLen && got != target {
			t.Fatalf("printable target %q decodes to %q", target, got)
		}
	})
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindPathSwitch:  "path_switch",
		KindFaultApply:  "fault_apply",
		KindFaultRevert: "fault_revert",
		KindWithdraw:    "withdraw",
		KindQueueDrop:   "queue_drop",
		KindViolation:   "violation",
		KindDiscovery:   "discovery",
		KindFaultFailed: "fault_failed",
		Kind(200):       "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
