package registrycurator

// Incremental curation contract: a Window fed Push and Drop, promoting
// only when Pending says a pass is due, makes exactly the promotions
// batch Curate makes over the same observations — step by step, with
// the two running in lockstep on registries cloned from one base.

import (
	"fmt"
	"reflect"
	"testing"

	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// externalCaps are capabilities the fuzz target registers
// mid-sequence, into both registries at once.
func externalCaps() []registry.Capability {
	impl := func(c *registry.Call) error { c.Out["w"] = "w"; return nil }
	return []registry.Capability{
		{
			Name: "t.d", Framework: "u", Description: "step d",
			Inputs:  []registry.Port{{Name: "z", Type: registry.TImpact}},
			Outputs: []registry.Port{{Name: "w", Type: registry.TString}},
			Cost:    1, Pure: true, Impl: impl,
		},
		{
			// Occupies the name the b→c pattern would be promoted under,
			// so that pattern is covered without being promoted.
			Name: "composite.b_to_c_2", Framework: "composite", Description: "squatter",
			Inputs:  []registry.Port{{Name: "x", Type: registry.TLinkSet}},
			Outputs: []registry.Port{{Name: "z", Type: registry.TImpact}},
			Impl:    impl,
		},
	}
}

// poolWorkflows builds the shapes the fuzz target observes, each over
// three queries. Every shape is a distinct *workflow.Workflow, reused
// across pushes the way plan-cache hits reuse one.
func poolWorkflows() []*workflow.Workflow {
	lit := workflow.Lit
	ref := workflow.Ref
	shapes := []func(q string) *workflow.Workflow{
		chainWorkflow,
		// Same chain ending in auto-chained glue: its patterns are not
		// meaningful, so whether it is the representative reorders the
		// pass.
		func(q string) *workflow.Workflow {
			wf := chainWorkflow(q)
			wf.Steps[2].Phase = "auto"
			return wf
		},
		// Extends the chain with t.d, absent until registered.
		func(q string) *workflow.Workflow {
			wf := chainWorkflow(q)
			wf.Steps = append(wf.Steps, workflow.Step{
				ID: "s4", Capability: "t.d", Inputs: map[string]workflow.Binding{"z": ref("s3", "z")}, Phase: "report",
			})
			return wf
		},
		// t.b binds an input its capability does not declare: as the
		// representative of b→c it makes the composite unliftable.
		func(q string) *workflow.Workflow {
			wf := chainWorkflow(q)
			wf.Steps[1].Inputs = map[string]workflow.Binding{"x": ref("s1", "x"), "bogus": lit(1)}
			return wf
		},
		// The b→c tail alone, headed by a literal.
		func(q string) *workflow.Workflow {
			return &workflow.Workflow{Name: "tail", Query: q, Steps: []workflow.Step{
				{ID: "s1", Capability: "t.b", Inputs: map[string]workflow.Binding{"x": lit([]string{"x"})}, Phase: "load"},
				{ID: "s2", Capability: "t.c", Inputs: map[string]workflow.Binding{"y": ref("s1", "y")}, Phase: "aggregate"},
			}}
		},
	}
	var out []*workflow.Workflow
	for _, shape := range shapes {
		for _, q := range []string{"q0", "q1", "q2"} {
			out = append(out, shape(q))
		}
	}
	// A second pointer to an existing fingerprint: support counts it
	// once.
	out = append(out, chainWorkflow("q0"))
	return out
}

// qualityResult returns a result whose QualityScore is passed/total
// (1 when total is 0).
func qualityResult(passed, total int) *workflow.Result {
	res := &workflow.Result{}
	for i := 0; i < total; i++ {
		res.Checks = append(res.Checks, workflow.CheckResult{Name: fmt.Sprint(i), Passed: i < passed})
	}
	return res
}

// results are the quality levels observations carry: above, at and
// below the 0.8 default threshold.
var results = []*workflow.Result{
	qualityResult(0, 0), qualityResult(4, 5), qualityResult(2, 3), qualityResult(1, 2),
}

// sameCapability compares everything about two composites but their
// implementation closures.
func sameCapability(a, b registry.Capability) bool {
	a.Impl, b.Impl = nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzWindowMatchesCurate drives a Window with a byte-coded sequence
// of operations and checks after every one that its promotions equal
// batch Curate's over the same observations. Each byte b codes an
// operation b%8 with argument b/8:
//
//	0-3  push a pooled workflow at a pooled quality level
//	4    push a failed observation
//	5    drop the 1-4 oldest observations
//	6    push a burst of 32 observations
//	7    register an external capability into both registries
//
// Pushes trim the window by 64 once it holds more than 576
// observations, as a serving System does.
func FuzzWindowMatchesCurate(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		pool := poolWorkflows()
		extras := externalCaps()
		base := chainRegistry(t)
		regW, regB := base.Clone(), base.Clone()
		agent := New()
		w := agent.NewWindow()
		var pass Pass
		var history []Observation

		push := func(obs Observation) {
			history = append(history, obs)
			w.Push(obs)
			if len(history) > 576 {
				history = history[64:]
				w.Drop(64)
			}
		}
		pooled := func(x int) Observation {
			return Observation{Workflow: pool[x%len(pool)], Result: results[(x/len(pool)+x)%len(results)]}
		}
		for i, b := range ops {
			x := int(b / 8)
			switch b % 8 {
			case 0, 1, 2, 3:
				push(pooled(x + int(b%4)*32))
			case 4:
				obs := pooled(x)
				obs.Err = errStub{}
				push(obs)
			case 5:
				n := 1 + x%4
				history = history[min(n, len(history)):]
				w.Drop(n)
			case 6:
				for j := 0; j < 32; j++ {
					push(pooled(x + j))
				}
			case 7:
				c := extras[x%len(extras)]
				if !regB.Has(c.Name) {
					if err := regW.Register(c); err != nil {
						t.Fatal(err)
					}
					if err := regB.Register(c); err != nil {
						t.Fatal(err)
					}
				}
			}
			if w.Len() != len(history) {
				t.Fatalf("op %d: window holds %d observations, history %d", i, w.Len(), len(history))
			}

			var got []Promotion
			if w.Pending(regW.Generation(), &pass) {
				var err error
				if got, err = agent.Promote(&pass, regW); err != nil {
					t.Fatalf("op %d: window pass: %v", i, err)
				}
				w.Done(&pass)
			}
			want, err := New().Curate(history, regB)
			if err != nil {
				t.Fatalf("op %d: batch: %v", i, err)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d (byte %d): window promoted %d, batch %d:\nwindow %+v\nbatch  %+v",
					i, b, len(got), len(want), got, want)
			}
			for k := range got {
				g, wt := got[k], want[k]
				if !reflect.DeepEqual(g.Pattern, wt.Pattern) || g.Support != wt.Support ||
					g.AvgQuality != wt.AvgQuality || !sameCapability(g.Capability, wt.Capability) {
					t.Fatalf("op %d: promotion %d differs:\nwindow %+v\nbatch  %+v", i, k, g, wt)
				}
			}
			if gw, gb := regW.Generation(), regB.Generation(); gw != gb {
				t.Fatalf("op %d: registry generations diverged: window %d, batch %d", i, gw, gb)
			}
		}
	})
}

// TestWindowSkipsUnchangedPasses pins the point of the window: once a
// pass has run, pushes that change no promotion input leave no pass
// due, while a changed registry generation makes one due again.
func TestWindowSkipsUnchangedPasses(t *testing.T) {
	reg := chainRegistry(t)
	a := New()
	w := a.NewWindow()
	var pass Pass
	wf1, wf2 := chainWorkflow("q1"), chainWorkflow("q2")
	w.Push(Observation{Workflow: wf1, Result: results[0]})
	w.Push(Observation{Workflow: wf2, Result: results[0]})
	if !w.Pending(reg.Generation(), &pass) {
		t.Fatal("first pass not due")
	}
	promos, err := a.Promote(&pass, reg)
	if err != nil || len(promos) == 0 {
		t.Fatalf("first pass promoted %v, %v", promos, err)
	}
	w.Done(&pass)
	// The promotion bumped the generation: one more pass is due, and it
	// promotes nothing.
	if !w.Pending(reg.Generation(), &pass) {
		t.Fatal("pass after a promotion not due")
	}
	if promos, _ := a.Promote(&pass, reg); len(promos) != 0 {
		t.Fatalf("second pass promoted %v", promos)
	}
	w.Done(&pass)
	for i := 0; i < 100; i++ {
		w.Push(Observation{Workflow: wf1, Result: results[0]})
		if w.Pending(reg.Generation(), &pass) {
			t.Fatalf("push %d of an unchanged plan made a pass due", i)
		}
	}
	reg.MustRegister(externalCaps()[0])
	if !w.Pending(reg.Generation(), &pass) {
		t.Fatal("registry growth did not make a pass due")
	}
}
