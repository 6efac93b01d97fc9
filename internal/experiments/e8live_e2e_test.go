package experiments

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestLoopbackE2E is the two-process end-to-end gate: it builds tangod,
// launches a listener and a dialer over 127.0.0.1 on the E8-live delay
// table, and requires both controllers to converge to the same paths as
// the simulated reference (E8LiveSim), with a clean SIGINT shutdown.
// Set LOOPBACK_ARTIFACT_DIR to keep process logs and final /metrics
// scrapes (the CI job uploads them).
func TestLoopbackE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process loopback run is not a -short test")
	}

	// The simulated reference must agree before the live run is judged
	// against it.
	if r := E8LiveSim(Config{Seed: 1}); !r.Passed() {
		t.Fatal("simulated E8-live reference did not converge; live comparison is meaningless")
	}

	bin := filepath.Join(t.TempDir(), "tangod")
	build := exec.Command("go", "build", "-o", bin, "tango/cmd/tangod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	artifactDir := os.Getenv("LOOPBACK_ARTIFACT_DIR")
	if artifactDir != "" {
		if err := os.MkdirAll(artifactDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := RunE8Loopback(LoopbackConfig{
		Tangod:      bin,
		ArtifactDir: artifactDir,
	})
	if err != nil {
		t.Fatalf("loopback run: %v (report: %+v)", err, rep)
	}
	for i, site := range []string{"site-a", "site-b"} {
		if tx := rep.Final[i][`tango_transport_tx_frames_total{site="`+site+`"}`]; tx <= 0 {
			t.Fatalf("%s wrote no Tango frames by its final scrape (tx_frames_total = %v)", site, tx)
		}
	}
	t.Logf("converged in %v (a->path %d, b->path %d)",
		rep.ConvergedIn.Round(time.Millisecond), rep.PathA, rep.PathB)
}
