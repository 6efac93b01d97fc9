package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
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

func TestJournalJSONControlCharsStripped(t *testing.T) {
	j := NewJournal(1)
	j.Record(0, KindViolation, 0, 0, 0, "bad\x01name\x7f")
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("control chars must not break JSON: %v\n%s", err, buf.String())
	}
	if got := decoded[0]["target"]; got != "bad.name." {
		t.Fatalf("target = %q, want control chars replaced", got)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindPathSwitch:  "path_switch",
		KindFaultApply:  "fault_apply",
		KindFaultRevert: "fault_revert",
		KindWithdraw:    "withdraw",
		KindQueueDrop:   "queue_drop",
		KindViolation:   "violation",
		Kind(200):       "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
