package core

import (
	"testing"
	"time"

	"tango/internal/control"
	"tango/internal/topo"
)

// establish builds the Vultr scenario and a ready Pair with probing on.
func establish(t *testing.T, seed int64, cfg PairConfig) (*topo.Scenario, *Pair) {
	t.Helper()
	s, err := topo.NewVultrScenario(topo.ScenarioConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5 * time.Minute) // base convergence
	p := VultrPair(s, cfg)
	p.Establish()
	if !p.RunUntilReady(time.Hour) {
		t.Fatal("pair did not establish within an hour of virtual time")
	}
	return s, p
}

func TestPairEstablishesFourPathsEachWay(t *testing.T) {
	_, p := establish(t, 21, PairConfig{ProbeInterval: 10 * time.Millisecond})

	wantAtoB := []string{"NTT", "Telia", "GTT", "Cogent"} // NY->LA? A=NY sends to LA...
	_ = wantAtoB
	// A=NY: its outgoing paths go toward LA, delivered into vultr-la by
	// NTT/Telia/GTT/Level3. B=LA: delivered into vultr-ny by
	// NTT/Telia/GTT/Cogent.
	gotA := make([]string, 0, 4)
	for _, dp := range p.A.OutPaths {
		gotA = append(gotA, dp.ProviderName)
	}
	gotB := make([]string, 0, 4)
	for _, dp := range p.B.OutPaths {
		gotB = append(gotB, dp.ProviderName)
	}
	wantNYtoLA := []string{"NTT", "Telia", "GTT", "Level3"}
	wantLAtoNY := []string{"NTT", "Telia", "GTT", "Cogent"}
	if len(gotA) != 4 || len(gotB) != 4 {
		t.Fatalf("paths: A=%v B=%v", gotA, gotB)
	}
	for i := range wantNYtoLA {
		if gotA[i] != wantNYtoLA[i] {
			t.Fatalf("NY->LA paths = %v, want %v", gotA, wantNYtoLA)
		}
		if gotB[i] != wantLAtoNY[i] {
			t.Fatalf("LA->NY paths = %v, want %v", gotB, wantLAtoNY)
		}
	}
	if len(p.A.Switch.Tunnels()) != 4 || len(p.B.Switch.Tunnels()) != 4 {
		t.Fatal("tunnel count wrong")
	}
	if p.A.PathName(1) != "NTT" || p.A.PathName(3) != "GTT" || p.A.PathName(99) == "" {
		t.Fatal("PathName wrong")
	}
}

func TestPairMeasuresCalibratedOWDs(t *testing.T) {
	_, p := establish(t, 22, PairConfig{ProbeInterval: 10 * time.Millisecond})
	// Let probes flow for two minutes of virtual time.
	eng := p.A.Spec.Edge.Speaker.Engine()
	eng.Run(eng.Now() + 2*time.Minute)

	// LA's monitor sees NY->LA paths. OWD raw values carry the clock
	// offset (LA clock - NY clock = -900ms - 1700ms = -2.6s), so
	// compare *differences* against the calibration.
	mon := p.B.Monitor // B=LA measures incoming NY->LA
	var ntt, gtt, telia *control.PathMonitor
	for _, pm := range mon.Paths() {
		switch pm.Name {
		case "NTT":
			ntt = pm
		case "GTT":
			gtt = pm
		case "Telia":
			telia = pm
		}
	}
	if ntt == nil || gtt == nil || telia == nil {
		t.Fatalf("monitored paths incomplete: %+v", mon.Paths())
	}
	if ntt.OWD.N() < 1000 {
		t.Fatalf("too few samples: %d", ntt.OWD.N())
	}
	// Raw OWDs are offset by the (constant) clock skew: they can even
	// be negative. Differences must match the profiles.
	gapNTT := ntt.OWD.Mean() - gtt.OWD.Mean() // ms
	if gapNTT < 7.5 || gapNTT > 9.5 {
		t.Fatalf("NTT-GTT gap = %.3f ms, want ~8.5", gapNTT)
	}
	gapTelia := telia.OWD.Mean() - gtt.OWD.Mean()
	if gapTelia < 2.3 || gapTelia > 4.0 {
		t.Fatalf("Telia-GTT gap = %.3f ms, want ~3.2", gapTelia)
	}
	// The clock offset pushes raw OWD far from the true ~28-37ms.
	if ntt.OWD.Mean() > 0 {
		t.Fatalf("raw NTT OWD = %.3f ms; expected negative under LA-NY clock skew", ntt.OWD.Mean())
	}
	// Jitter separation (E3): GTT nearly constant, Telia noisy.
	jG, jT := gtt.Jitter.MeanStd(), telia.Jitter.MeanStd()
	if jG > 0.05 {
		t.Fatalf("GTT rolling jitter = %.4f ms, want ~0.01", jG)
	}
	if jT < 0.15 {
		t.Fatalf("Telia rolling jitter = %.4f ms, want ~0.33", jT)
	}
}

func TestPairControllerMovesToGTT(t *testing.T) {
	_, p := establish(t, 23, PairConfig{
		ProbeInterval: 10 * time.Millisecond,
		DecideEvery:   time.Second,
	})
	eng := p.A.Spec.Edge.Speaker.Engine()
	// Controllers start on path 1 (NTT, the BGP default); with
	// feedback flowing they must both settle on GTT.
	eng.Run(eng.Now() + 5*time.Minute)

	aName := p.A.PathName(p.A.Controller.Current())
	bName := p.B.PathName(p.B.Controller.Current())
	if aName != "GTT" {
		t.Fatalf("NY controller on %s, want GTT", aName)
	}
	if bName != "GTT" {
		t.Fatalf("LA controller on %s, want GTT", bName)
	}
	if p.A.Switch.Stats.ReportsRecvd == 0 {
		t.Fatal("no feedback reports arrived")
	}
}

func TestPairHostTrafficTunnelled(t *testing.T) {
	s, p := establish(t, 24, PairConfig{ProbeInterval: 10 * time.Millisecond})
	eng := s.B.Eng()

	delivered := 0
	p.B.AddSink(func(inner []byte) bool {
		// Claim only our test flow (inner UDP dst port 9998); probe
		// packets keep flowing to later sinks.
		if len(inner) >= 44 && inner[42] == 0x27 && inner[43] == 0x0e {
			delivered++
			return true
		}
		return false
	})

	// An inner host packet from NY's host space to LA's host space.
	src, _ := p.A.Spec.HostPrefix.Host(5)
	dst, _ := p.B.Spec.HostPrefix.Host(5)
	pr := probePacket(t, src, dst)
	p.A.Send(pr)
	eng.Run(eng.Now() + time.Second)
	if delivered != 1 {
		t.Fatalf("host packet not tunnelled/delivered: %d", delivered)
	}
	if p.A.Switch.Stats.Encapped == 0 {
		t.Fatal("host packet bypassed the tunnel")
	}
	if p.A.Peer() != p.B || p.B.Peer() != p.A {
		t.Fatal("peer links wrong")
	}
}

func TestPairReadyIdempotentAndAccessors(t *testing.T) {
	_, p := establish(t, 25, PairConfig{})
	if !p.Ready() {
		t.Fatal("Ready false after establish")
	}
	if len(p.A.Endpoints) != 4 || len(p.B.Endpoints) != 4 {
		t.Fatalf("endpoints: %d/%d", len(p.A.Endpoints), len(p.B.Endpoints))
	}
	// Without probing configured there is no prober or reporter.
	if p.A.Prober != nil || p.A.Reporter != nil {
		t.Fatal("probe machinery created without ProbeInterval")
	}
}
