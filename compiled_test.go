package arachnet_test

// Compiled warm path, end to end: a System serving from compiled
// plans must be observationally identical to one forced onto the
// interpreted path — across cold asks, warm replays, scenario
// injections and curation promotions — and a warm compiled Ask must
// stay within a small allocation budget. A -race hammer then drives
// concurrent asks through the compiled path while promotions and
// scenario injections advance the registry generation and environment
// epoch underneath.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"arachnet"
)

// pairedSystems builds two identically seeded small-world systems and
// forces the second onto the interpreted path.
func pairedSystems(t *testing.T, seed uint64) (compiled, interpreted *arachnet.System) {
	t.Helper()
	build := func() *arachnet.System {
		sys, err := arachnet.New(arachnet.WithSmallWorld(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	compiled, interpreted = build(), build()
	interpreted.SetCompiledPlans(false)
	return compiled, interpreted
}

// TestCompiledMatchesInterpreted is the byte-identity acceptance
// gate: the same sequence of asks (cold, warm, post-injection, with
// curation promoting composites along the way) must produce
// byte-identical reports whether plans are replayed compiled or
// interpreted.
func TestCompiledMatchesInterpreted(t *testing.T) {
	const (
		cs1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
		cs4 = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."
	)
	comp, interp := pairedSystems(t, 42)

	type action struct {
		label  string
		query  string // "" means inject the scenario instead
		inject uint64
	}
	script := []action{
		{label: "cold cs1", query: cs1},
		{label: "warm cs1", query: cs1},
		{label: "inject scenario", inject: 5},
		{label: "cold cs4 post-injection", query: cs4},
		{label: "warm cs4", query: cs4},
		{label: "cs1 replanned after epoch bump", query: cs1},
	}
	for _, a := range script {
		if a.query == "" {
			sc := arachnet.ScenarioConfig{Seed: a.inject}
			if err := comp.Environment().InjectCableFailureScenario(sc); err != nil {
				t.Fatal(err)
			}
			if err := interp.Environment().InjectCableFailureScenario(sc); err != nil {
				t.Fatal(err)
			}
			continue
		}
		repC, err := comp.Ask(ctx, a.query)
		if err != nil {
			t.Fatalf("%s (compiled): %v", a.label, err)
		}
		repI, err := interp.Ask(ctx, a.query)
		if err != nil {
			t.Fatalf("%s (interpreted): %v", a.label, err)
		}
		jc, ji := normalizedReport(t, repC), normalizedReport(t, repI)
		if string(jc) != string(ji) {
			t.Errorf("%s: compiled and interpreted reports differ:\ncompiled:    %s\ninterpreted: %s",
				a.label, jc, ji)
		}
	}
	// Both systems walked the same history, so curation must have
	// promoted identically — the registries stayed in lockstep.
	if cg, ig := comp.Registry().Generation(), interp.Registry().Generation(); cg != ig {
		t.Errorf("registry generations diverged: compiled %d, interpreted %d", cg, ig)
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
// The interpreted path re-validates, re-resolves and re-hashes the
// whole plan per ask; the compiled path must stay under a budget an
// order of magnitude below that. The ceiling carries ~2x headroom
// over the measured cost so it catches regressions, not jitter.
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
