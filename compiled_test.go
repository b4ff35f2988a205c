package arachnet_test

// Compiled warm path, end to end: a scripted sequence of asks (cold,
// warm, after a scenario injection, with curation promoting composites
// along the way) must keep producing byte-identical reports, and a
// warm compiled Ask must stay within a small allocation budget. A
// -race hammer then drives concurrent asks through the compiled path
// while promotions and scenario injections advance the registry
// generation and environment epoch underneath.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"arachnet"
)

// TestAskScriptGolden pins the normalized report of every ask in a
// fixed script on the seed-42 small world by sha256. The digests were
// recorded when an interpreted and a compiled engine still coexisted
// and produced byte-identical reports for the whole script. A changed
// digest means a report changed: wrong answers, lost determinism, or
// a deliberate format change that must update the pins.
func TestAskScriptGolden(t *testing.T) {
	const (
		cs1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
		cs4 = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."
	)
	sys, err := arachnet.New(arachnet.WithSmallWorld(42))
	if err != nil {
		t.Fatal(err)
	}

	script := []struct {
		label  string
		query  string // "" means inject the scenario instead
		inject uint64
		sha256 string
	}{
		{label: "cold cs1", query: cs1,
			sha256: "679ccd5d0dc93257ebe8ebb04850fce123a0bd41532d723c7191de455ff5f850"},
		{label: "warm cs1", query: cs1,
			sha256: "c5eda691be2b3f78aada971eaed0b4f2f4e763c7f1db5b6a0ac833e4176e77cb"},
		{label: "inject scenario", inject: 5},
		{label: "cold cs4 post-injection", query: cs4,
			sha256: "fea29fa5203fde3c53700e3d98ffb1b567a8d21b24b89efac738816cb14877ef"},
		{label: "warm cs4", query: cs4,
			sha256: "68c1a8829b7d8921bb1cb7dad402c779fe8dc944b985e50c58f6ed6ea615c90d"},
		{label: "cs1 replanned after epoch bump", query: cs1,
			sha256: "c5eda691be2b3f78aada971eaed0b4f2f4e763c7f1db5b6a0ac833e4176e77cb"},
	}
	for _, a := range script {
		if a.query == "" {
			if err := sys.Environment().InjectCableFailureScenario(arachnet.ScenarioConfig{Seed: a.inject}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rep, err := sys.Ask(ctx, a.query)
		if err != nil {
			t.Fatalf("%s: %v", a.label, err)
		}
		data := normalizedReport(t, rep)
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != a.sha256 {
			t.Errorf("%s: report sha256 %x, want %s\nreport: %s", a.label, sum, a.sha256, data)
		}
	}
	// Curation promoted the same composites along the way.
	if g := sys.Registry().Generation(); g != 24 {
		t.Errorf("registry generation %d after the script, want 24", g)
	}
}

// TestCompiledConcurrentHammer drives concurrent asks through the
// compiled warm path of a fleet-backed system while curation promotes
// composites and scenario injections advance the environment epoch —
// the -race job's compiled workout. Cross-epoch results are not
// comparable; the test asserts every ask succeeds and the caches stay
// coherent.
func TestCompiledConcurrentHammer(t *testing.T) {
	sys, err := arachnet.New(arachnet.WithSmallWorld(42), arachnet.WithFleet(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Fleet().Close)
	queries := []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact at a country level due to SeaMeWe-4 cable failure",
		"Identify the impact at a country level due to AAE-1 cable failure",
	}
	askers, rounds := 8, 5
	if testing.Short() {
		askers, rounds = 4, 2
	}

	var wg sync.WaitGroup
	errc := make(chan error, askers*rounds+rounds)
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := queries[(g+r)%len(queries)]
				// Curation deliberately left on: promotions bump the
				// registry generation mid-hammer, forcing plan-cache
				// invalidation and recompilation under load.
				if _, err := sys.Ask(ctx, q); err != nil {
					errc <- fmt.Errorf("asker %d round %d: %w", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			sc := arachnet.ScenarioConfig{Seed: uint64(200 + r)}
			if err := sys.Environment().InjectCableFailureScenario(sc); err != nil {
				errc <- fmt.Errorf("inject round %d: %w", r, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := sys.CacheStats()
	if st.Plan.Hits == 0 {
		t.Errorf("no plan-cache hits under the hammer: %+v", st.Plan)
	}
}

// TestWarmAskAllocCeiling pins the allocation budget of a fully warm
// compiled Ask: plan compiled and memoized, every step a cache hit.
// Nothing is re-validated, re-resolved or re-hashed per ask. The
// ceiling carries ~2x headroom over the measured cost so it catches
// regressions, not jitter.
//
// The default case keeps curation on, the way servers run, with the
// observation history already wrapped past its trim point: every ask
// then pushes into a full window and the measured asks cross a trim,
// so the budget covers incremental mining, the retirement of the
// oldest observations and the promotion passes they trigger.
func TestWarmAskAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	const (
		query   = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
		ceiling = 50
		runs    = 200
	)
	cases := []struct {
		name string
		opts []arachnet.AskOption
		warm int
	}{
		// compile, memoize, warm every step cache
		{"no curation", []arachnet.AskOption{arachnet.AskWithoutCuration()}, 3},
		// ... and wrap the 512+64 observation window
		{"default", nil, 600},
	}
	avgs := map[string]float64{}
	for _, c := range cases {
		sys, err := arachnet.New(arachnet.WithSmallWorld(42))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.warm; i++ {
			if _, err := sys.Ask(ctx, query, c.opts...); err != nil {
				t.Fatal(err)
			}
		}
		avg := allocsPerAsk(t, sys, query, runs, c.opts...)
		avgs[c.name] = avg
		t.Logf("warm compiled Ask (%s): %.0f allocs/op", c.name, avg)
		if avg > ceiling {
			t.Errorf("warm compiled Ask (%s) allocates %.0f/op, budget %d", c.name, avg, ceiling)
		}
	}
	if d, n := avgs["default"], avgs["no curation"]; d > 2*n {
		t.Errorf("default warm Ask allocates %.0f/op, over 2x the curation-off %.0f/op", d, n)
	}
}

// allocsPerAsk measures mean heap allocations per warm Ask. The
// pipeline runs steps on worker goroutines, so this uses a
// whole-process Mallocs delta (like ReadMemStats-based benchmarks)
// rather than testing.AllocsPerRun's current-goroutine accounting.
func allocsPerAsk(t *testing.T, sys *arachnet.System, query string, runs int, opts ...arachnet.AskOption) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sys.Ask(ctx, query, opts...); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
