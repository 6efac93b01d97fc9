package topo

// Fuzz target for the generator (the companion of the packet codec
// fuzzers): any seed and size must either be rejected by Validate with an
// error or generate a structurally sound graph — never panic, and never
// hang. Run it locally with
//
//	go test -fuzz FuzzGenConfig ./internal/topo
//
// CI's fuzz-smoke job gives it a fixed budget on every push.

import "testing"

func FuzzGenConfig(f *testing.F) {
	f.Add(int64(1), 16)    // a healthy baseline
	f.Add(int64(42), 0)    // core and transit only
	f.Add(int64(7), 50000) // the size cap
	f.Add(int64(-3), -5)   // a negative size
	f.Add(int64(9), 440)   // the 8-member clique's threshold
	f.Fuzz(func(t *testing.T, seed int64, sites int) {
		cfg := GenConfig{Seed: seed, Sites: sites}
		if err := cfg.Validate(); err != nil {
			// Invalid configs must also be refused by Gen, symmetrically.
			if _, genErr := Gen(cfg); genErr == nil {
				t.Fatalf("Validate rejected %+v but Gen accepted it", cfg)
			}
			return
		}
		g, err := Gen(cfg)
		if err != nil {
			t.Fatalf("Gen rejected a validated config %+v: %v", cfg, err)
		}
		stubs := 0
		for _, a := range g.ASes {
			if a.Tier == GenStub {
				stubs++
			}
		}
		if stubs != sites {
			t.Fatalf("%d stub ASes, want %d", stubs, sites)
		}
		if !g.Connected() {
			t.Fatalf("generated graph is disconnected: %+v", cfg)
		}
		if !g.ProviderAcyclic() {
			t.Fatalf("generated provider digraph is cyclic: %+v", cfg)
		}
		if !distinctASNs(g) {
			t.Fatalf("generated graph reuses ASNs: %+v", cfg)
		}
	})
}
