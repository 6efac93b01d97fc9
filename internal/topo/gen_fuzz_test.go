package topo

// Fuzz target for generator config validation (the companion of the
// packet codec fuzzers): arbitrary field values must either be rejected by
// Validate with an error or generate a structurally sound graph —
// never panic, and never hang. Run it locally with
//
//	go test -fuzz FuzzGenConfig ./internal/topo
//
// CI's fuzz-smoke job gives it a fixed budget on every push.

import "testing"

func FuzzGenConfig(f *testing.F) {
	f.Add(int64(1), 3, 8, 16, 2, 3, 2, 4, 1.0)              // a healthy baseline
	f.Add(int64(42), 1, 0, 0, 0, 0, 0, 0, 0.0)              // core-only minimum
	f.Add(int64(7), 64, 4096, 50000, 1, 4, 64, 100000, 8.0) // every cap at once
	f.Add(int64(-3), 0, -1, -5, 3, 2, -2, -7, -1.5)         // nonsense everywhere
	f.Fuzz(func(t *testing.T, seed int64, tier1, tier2, sites, minH, maxH, t2max, peers int, prefExp float64) {
		cfg := GenConfig{
			Seed:           seed,
			Tier1:          tier1,
			Tier2:          tier2,
			Sites:          sites,
			MinHoming:      minH,
			MaxHoming:      maxH,
			Tier2MaxHoming: t2max,
			PeerLinks:      peers,
			PrefExp:        prefExp,
		}
		err := cfg.Validate()
		if err != nil {
			// Invalid configs must also be refused by Gen, symmetrically.
			if _, genErr := Gen(cfg); genErr == nil {
				t.Fatalf("Validate rejected %+v but Gen accepted it", cfg)
			}
			return
		}
		// Valid configs at the extreme caps can describe graphs with
		// hundreds of thousands of adjacencies; generating those is
		// legitimate but too slow for a fuzz budget, so bound the work
		// and leave the full-size path to the scale experiments.
		if work := tier1*tier1 + tier2*t2max + sites*maxH + peers; work > 50000 {
			t.Skip("structurally valid but beyond the fuzz work budget")
		}
		g, err := Gen(cfg)
		if err != nil {
			t.Fatalf("Gen rejected a validated config %+v: %v", cfg, err)
		}
		if want := tier1 + tier2 + sites; len(g.ASes) != want {
			t.Fatalf("%d ASes, want %d", len(g.ASes), want)
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
