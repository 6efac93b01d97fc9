package main

import (
	"fmt"
	"strings"
	"testing"

	"tango/internal/experiments"
)

// TestSelectExperiments pins -run to the registry: the message for an
// unknown id lists every id -run accepts (the opt-in e12-e15 included),
// every listed id resolves, and "all" is a strict subset.
func TestSelectExperiments(t *testing.T) {
	var ids []string
	for _, e := range experiments.Registry {
		ids = append(ids, e.ID)
		if got, err := selectExperiments(" " + strings.ToUpper(e.ID)); err != nil || len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("-run %s resolved to %v, %v", e.ID, got, err)
		}
	}
	_, err := selectExperiments("e1,nope")
	if err == nil {
		t.Fatal("-run nope was accepted")
	}
	if want := fmt.Sprint(ids); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error %q does not name \"nope\" and every id %s", err, want)
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) == 0 || len(all) >= len(ids) {
		t.Fatalf("-run all picked %d of %d experiments, err %v", len(all), len(ids), err)
	}
}
