package main

import (
	"testing"

	"arachnet/internal/core"
	"arachnet/internal/netsim"
	"arachnet/internal/nlq"
)

// world builds an environment with the boot scenario injected, as the
// benchmark's set-up does.
func world(t *testing.T, cfg netsim.Config, scenarioSeed uint64) *core.Environment {
	t.Helper()
	env, err := core.NewEnvironment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: scenarioSeed}); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestGeneratedQueriesParseAndPlan checks every query the generator
// draws, for several seeds and both worlds' catalogs: it parses to the
// intent it was generated for, a cascade corridor names two distinct
// regions, and it plans without error on both worlds.
func TestGeneratedQueriesParseAndPlan(t *testing.T) {
	worlds := map[string]*core.Environment{
		"small": world(t, netsim.SmallConfig(7), 7),
	}
	if !testing.Short() {
		worlds["full"] = world(t, netsim.DefaultConfig(42), 42)
	}
	reg := core.BuiltinRegistry()
	for genWorld, genEnv := range worlds {
		for seed := uint64(1); seed <= 5; seed++ {
			g := newGenerator(genEnv, seed)
			queries := append(g.hotSet(), g.stream(200)...)
			for _, q := range queries {
				spec := nlq.Parse(q.Text, genEnv.Catalog)
				if spec.Intent != q.Intent {
					t.Fatalf("%s seed %d: %q parses to %q, generated as %q", genWorld, seed, q.Text, spec.Intent, q.Intent)
				}
				if q.Intent == nlq.IntentCascade && (len(spec.Regions) != 2 || spec.Regions[0] == spec.Regions[1]) {
					t.Fatalf("%s seed %d: %q: corridor regions %v", genWorld, seed, q.Text, spec.Regions)
				}
				for name, env := range worlds {
					if _, err := planQuery(nil, 0, env, reg, q.Text); err != nil {
						t.Fatalf("%s seed %d: %q does not plan on the %s world: %v", genWorld, seed, q.Text, name, err)
					}
				}
			}
		}
	}
}

// TestGeneratorDeterministic checks that one seed gives one stream and
// that the hot set holds sixteen distinct queries led by the case
// studies.
func TestGeneratorDeterministic(t *testing.T) {
	env := world(t, netsim.SmallConfig(7), 7)
	a, b := newGenerator(env, 3).stream(100), newGenerator(env, 3).stream(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs for one seed: %q vs %q", i, a[i].Text, b[i].Text)
		}
	}
	set := newGenerator(env, 3).hotSet()
	seen := map[string]bool{}
	for i, q := range set {
		if seen[q.Text] {
			t.Fatalf("hot set repeats %q", q.Text)
		}
		seen[q.Text] = true
		if i < len(caseStudies) && q != caseStudies[i] {
			t.Fatalf("hot set rank %d is %q, want case study %q", i, q.Text, caseStudies[i].Text)
		}
	}
	if len(set) != 16 {
		t.Fatalf("hot set has %d queries, want 16", len(set))
	}
}
