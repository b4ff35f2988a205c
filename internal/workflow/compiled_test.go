package workflow

// Golden pins for the execution engine. Step fingerprints are the keys
// of every step cache (local and per-worker) and of -snapshot files,
// so their hex digests are pinned byte for byte; so are the error
// strings callers match on and the deterministic parts of a Result.
// The expected values were recorded when the interpreted and compiled
// engines still coexisted and agreed on every one of them. A failing
// pin means a change to the fingerprint preimage, error text or
// report format: existing caches and snapshots would stop matching.
// The alloc test pins the point of compilation: a fully cached replay
// stays within a small constant allocation budget.

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"

	"arachnet/internal/registry"
)

var provDuration = regexp.MustCompile(`in [0-9][^ ]*$`)

// maskProvenance zeroes the variable duration suffix of "ok in 12µs"
// lines so provenance compares byte-equal across runs.
func maskProvenance(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = provDuration.ReplaceAllString(l, "in 0s")
	}
	return out
}

// TestRunGoldenResult pins everything deterministic about a run with
// quality checks — values, outputs, step stats, check results and
// provenance bytes — for both the one-shot Run and a precompiled plan.
func TestRunGoldenResult(t *testing.T) {
	reg := buildTestRegistry(t)
	w := pipeline()
	w.Checks = []QualityCheck{
		{Name: "n-positive", Kind: CheckSanity, Ref: "dbl.n",
			Assert: func(v any) (bool, string) { return v.(int) > 0, "n must be positive" }},
		{Name: "n-small", Kind: CheckConsistency, Ref: "dbl.n",
			Assert: func(v any) (bool, string) { return v.(int) < 10, "n must be < 10" }},
	}
	wantValues := map[string]any{"src.n": 21, "dbl.n": 42, "out.text": "value=42"}
	wantOutputs := map[string]any{"text": "value=42"}
	wantSteps := []StepStat{
		{ID: "src", Capability: "test.source"},
		{ID: "dbl", Capability: "test.double"},
		{ID: "out", Capability: "test.render"},
	}
	wantChecks := []CheckResult{
		{Name: "n-positive", Kind: CheckSanity, Passed: true, Note: "n must be positive"},
		{Name: "n-small", Kind: CheckConsistency, Passed: false, Note: "n must be < 10"},
	}
	wantProv := []string{
		"step src (test.source): ok in 0s",
		"step dbl (test.double): ok in 0s",
		"step out (test.render): ok in 0s",
		"check n-positive [sanity]: pass n must be positive",
		"check n-small [consistency]: FAIL n must be < 10",
	}

	eng := NewEngine(reg, nil)
	cp, err := Compile(w, reg)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func() (*Result, error){
		"Run":         func() (*Result, error) { return eng.Run(context.Background(), w) },
		"RunCompiled": func() (*Result, error) { return eng.RunCompiled(context.Background(), cp, 0, nil) },
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(res.Values, wantValues) {
			t.Errorf("%s: values = %v, want %v", name, res.Values, wantValues)
		}
		if !reflect.DeepEqual(res.Outputs, wantOutputs) {
			t.Errorf("%s: outputs = %v, want %v", name, res.Outputs, wantOutputs)
		}
		steps := make([]StepStat, len(res.Steps))
		for i, st := range res.Steps {
			if st.Duration <= 0 || st.Err != nil {
				t.Errorf("%s: step %s duration %v err %v", name, st.ID, st.Duration, st.Err)
			}
			st.Duration = 0
			steps[i] = st
		}
		if !reflect.DeepEqual(steps, wantSteps) {
			t.Errorf("%s: steps = %+v, want %+v", name, steps, wantSteps)
		}
		if !reflect.DeepEqual(res.Checks, wantChecks) {
			t.Errorf("%s: checks = %+v, want %+v", name, res.Checks, wantChecks)
		}
		if got := maskProvenance(res.Provenance); !reflect.DeepEqual(got, wantProv) {
			t.Errorf("%s: provenance = %q, want %q", name, got, wantProv)
		}
	}
}

// TestFingerprintGolden pins the hex step fingerprints of four plans
// under the env fingerprint "env-golden" ("" marks a step that is not
// memoizable).
func TestFingerprintGolden(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	facetKeyer := func(capb *registry.Capability) string {
		if capb.Name == "memo.double" {
			return "facet:double"
		}
		return "" // fall back to the engine envFP
	}
	cases := []struct {
		label string
		wf    *Workflow
		keyer func(*registry.Capability) string
		want  []string
	}{
		{"pure chain", memoWorkflow(), nil, []string{
			"f35c51177fe5e625cd651f5d12e63eac2ee1419d47e7618d2a8e4c52906f36e7",
			"416b2a5c4dbabe28feab1bc86169bad7f1c2f8667eb9a0819133f70774e3c1e4",
		}},
		{"impure upstream", &Workflow{
			Name: "impure-chain",
			Steps: []Step{
				{ID: "i", Capability: "memo.impure"},
				{ID: "d", Capability: "memo.double", Inputs: map[string]Binding{"n": Ref("i", "n")}},
			},
			Outputs: map[string]string{"out": "d.n"},
		}, nil, []string{"", ""}},
		{"facet keyer", keyerWorkflow(), facetKeyer, []string{
			"8a525d810c259f90071a211b1fbcaa359224231469c2cb1e2b9e5f8f35137987",
			"695736da528d4cb7f9f0a77026173a30c416e1ca0382b7d49e1c36e65b26b0ff",
			"d824e904e0e9c2a8e4a3a55a0b19922e7b4bcd271b431aea2ab4477f8dbf0589",
		}},
		// One literal of each canonical encoding: string, JSON, float,
		// bool, int64.
		{"literal encodings", &Workflow{
			Name: "literals",
			Steps: []Step{
				{ID: "p", Capability: "memo.add", Inputs: map[string]Binding{"a": Lit("x|y:1"), "b": Lit([]string{"p", "q"})}},
				{ID: "q", Capability: "memo.add", Inputs: map[string]Binding{"a": Lit(2.5), "b": Lit(true)}},
				{ID: "r", Capability: "memo.add", Inputs: map[string]Binding{"a": Ref("p", "n"), "b": Lit(int64(-7))}},
			},
		}, nil, []string{
			"b25d4b5c528bad902b4ebf6562d6a8c830c5396f83f52cf3dddc9dc795111ca8",
			"df05900d5fd51880f512c3c2203bedd131b621cff128a53e9c946016380288f7",
			"466c66c2519ef2cfe3569118417118e23d153c29dd9eab3fd2a51bb22fb9e22d",
		}},
	}
	for _, tc := range cases {
		opts := []EngineOption{WithCache(newMapCache(), "env-golden")}
		if tc.keyer != nil {
			opts = append(opts, WithEnvKeyer(tc.keyer))
		}
		eng := NewEngine(reg, nil, opts...)
		cp, err := Compile(tc.wf, reg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		got := cp.fingerprintsFor(eng)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d fingerprints, want %d", tc.label, len(got), len(tc.want))
		}
		for i, fp := range got {
			if h := hex.EncodeToString([]byte(fp)); h != tc.want[i] {
				t.Errorf("%s: step %s fingerprint %s, want %s", tc.label, tc.wf.Steps[i].ID, h, tc.want[i])
			}
		}
	}
}

// TestCompiledErrorShapes pins the exact error text of step failures,
// contract violations, cancellation and validation failures. Step
// failures are *StepErrors; a workflow that fails Compile returns
// Validate's error, from Compile and from Run alike.
func TestCompiledErrorShapes(t *testing.T) {
	reg := buildTestRegistry(t)
	eng := NewEngine(reg, nil)
	ctx := context.Background()

	steps := []struct {
		wf   *Workflow
		want string
	}{
		{&Workflow{Name: "failing", Steps: []Step{{ID: "f", Capability: "test.fail"}}},
			`workflow: step "f" (test.fail): boom`},
		{&Workflow{Name: "bad", Steps: []Step{{ID: "b", Capability: "test.badimpl"}}},
			`workflow: step "b" (test.badimpl): capability "test.badimpl" did not produce output "n"`},
	}
	for _, tc := range steps {
		cp, err := Compile(tc.wf, reg)
		if err != nil {
			t.Fatalf("%s: %v", tc.wf.Name, err)
		}
		for name, err := range map[string]error{
			"Run":         second(eng.Run(ctx, tc.wf)),
			"RunCompiled": second(eng.RunCompiled(ctx, cp, 0, nil)),
		} {
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s %s: error %v, want %s", tc.wf.Name, name, err, tc.want)
			}
			var se *StepError
			if !errors.As(err, &se) {
				t.Errorf("%s %s: error is not a *StepError: %T", tc.wf.Name, name, err)
			}
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	const wantCancel = `workflow "test-pipeline": context canceled`
	if _, err := eng.Run(cancelled, pipeline()); err == nil || err.Error() != wantCancel || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: error %v, want %s", err, wantCancel)
	}

	invalid := []struct {
		wf   *Workflow
		is   error
		want string
	}{
		{&Workflow{Name: "unknown", Steps: []Step{{ID: "u", Capability: "test.nope"}}},
			ErrUnknownCap, `workflow: unknown capability: step "u" wants "test.nope"`},
		{&Workflow{Name: "badref", Steps: []Step{{ID: "d", Capability: "test.double", Inputs: map[string]Binding{"n": Ref("zz", "n")}}}},
			ErrBadRef, `workflow: unresolved reference: step "d" input "n" references "zz.n"`},
		{&Workflow{Name: "empty"}, ErrEmptyWorkflow, `workflow: no steps`},
	}
	for _, tc := range invalid {
		_, compileErr := Compile(tc.wf, reg)
		for name, err := range map[string]error{
			"Validate": tc.wf.Validate(reg),
			"Compile":  compileErr,
			"Run":      second(eng.Run(ctx, tc.wf)),
		} {
			if err == nil || err.Error() != tc.want || !errors.Is(err, tc.is) {
				t.Errorf("%s %s: error %v, want %s", tc.wf.Name, name, err, tc.want)
			}
		}
	}
}

// second returns the error of a (value, error) pair.
func second[T any](_ T, err error) error { return err }

func TestCompiledCacheInterop(t *testing.T) {
	ctx := context.Background()
	// A one-shot Run populates the cache; a compiled replay must hit it.
	{
		calls := map[string]*atomic.Int64{}
		reg := memoRegistry(t, calls)
		eng := NewEngine(reg, nil, WithCache(newMapCache(), "envA"))
		if _, err := eng.Run(ctx, memoWorkflow()); err != nil {
			t.Fatal(err)
		}
		cp, err := Compile(memoWorkflow(), reg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunCompiled(ctx, cp, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs["out"] != 43 {
			t.Fatalf("compiled output = %v", res.Outputs["out"])
		}
		for _, name := range []string{"memo.double", "memo.add"} {
			if n := calls[name].Load(); n != 1 {
				t.Errorf("%s executed %d times; compiled replay missed the Run cache", name, n)
			}
		}
		for _, st := range res.Steps {
			if !st.Cached {
				t.Errorf("compiled step %s not served from the Run cache", st.ID)
			}
		}
	}
	// A compiled run populates the cache; a one-shot Run must hit it.
	{
		calls := map[string]*atomic.Int64{}
		reg := memoRegistry(t, calls)
		eng := NewEngine(reg, nil, WithCache(newMapCache(), "envA"))
		cp, err := Compile(memoWorkflow(), reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunCompiled(ctx, cp, 0, nil); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(ctx, memoWorkflow())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"memo.double", "memo.add"} {
			if n := calls[name].Load(); n != 1 {
				t.Errorf("%s executed %d times; Run missed the compiled cache", name, n)
			}
		}
		for _, st := range res.Steps {
			if !st.Cached {
				t.Errorf("Run step %s not served from the compiled cache", st.ID)
			}
		}
	}
}

func TestCompiledEnvFingerprintSeparation(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	cache := newMapCache()
	cp, err := Compile(memoWorkflow(), reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engA := NewEngine(reg, nil, WithCache(cache, "envA"))
	engB := NewEngine(reg, nil, WithCache(cache, "envB"))

	if _, err := engA.RunCompiled(ctx, cp, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Different environment, shared plan and cache: must execute again,
	// not hit envA's entries.
	if _, err := engB.RunCompiled(ctx, cp, 0, nil); err != nil {
		t.Fatal(err)
	}
	if n := calls["memo.double"].Load(); n != 2 {
		t.Errorf("memo.double executed %d times, want 2 (env separation)", n)
	}
	// Back to envA: the memoized vector was displaced by envB, but the
	// recomputed digests must still hit envA's cache entries.
	res, err := engA.RunCompiled(ctx, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Steps {
		if !st.Cached {
			t.Errorf("envA replay step %s not cached after memo displacement", st.ID)
		}
	}
	if n := calls["memo.double"].Load(); n != 2 {
		t.Errorf("memo.double executed %d times after envA replay, want still 2", n)
	}
}

// TestCompiledWarmReplayAllocs pins the allocation budget of a fully
// cached compiled replay. The Result and its maps escape to the
// caller by design; everything else (scratch, fingerprints, input
// maps) must be pooled or memoized. The ceiling has ~2x headroom over
// the measured cost so it catches regressions, not jitter.
func TestCompiledWarmReplayAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	eng := NewEngine(reg, nil, WithCache(newMapCache(), "envA"))
	cp, err := Compile(memoWorkflow(), reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.RunCompiled(ctx, cp, 4, nil); err != nil {
		t.Fatal(err) // populates the cache; replays below are fully warm
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.RunCompiled(ctx, cp, 4, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm compiled replay: %.1f allocs/op", avg)
	const ceiling = 30
	if avg > ceiling {
		t.Errorf("warm compiled replay allocates %.1f/op, budget %d", avg, ceiling)
	}
}
