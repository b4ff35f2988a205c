package arachnet_test

// Benchmarks regenerating the paper's evaluation artifacts, one per
// table/figure (see DESIGN.md §3 for the experiment index):
//
//	F1   BenchmarkPipeline            — the four-agent pipeline end to end
//	CS1  BenchmarkCaseStudy1          — expert-replication cable impact
//	CS2  BenchmarkCaseStudy2          — multi-disaster impact
//	CS3  BenchmarkCaseStudy3          — Europe–Asia cascade
//	CS4  BenchmarkCaseStudy4          — forensic root cause
//	A1   BenchmarkRegistryCompactness — planning over compact vs bloated registries
//	A3   BenchmarkCuratorMining       — pattern mining + promotion
//
// Benchmarks run on the small world so they are stable and fast; the
// full-world numbers are produced by cmd/arachnet-bench.

import (
	"fmt"
	"testing"

	"arachnet"
)

var benchQueries = map[int]string{
	1: "Identify the impact at a country level due to SeaMeWe-5 cable failure",
	2: "Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
	3: "Analyze the cascading effects of submarine cable failures between Europe and Asia",
	4: "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
}

func benchSystem(b *testing.B, scenario bool) *arachnet.System {
	b.Helper()
	opts := []arachnet.Option{arachnet.WithSmallWorld(7)}
	if scenario {
		opts = append(opts, arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}))
	}
	sys, err := arachnet.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchCase(b *testing.B, n int, scenario bool) {
	sys := benchSystem(b, scenario)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[n], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline measures Figure 1's full pipeline (parse →
// QueryMind → WorkflowScout → SolutionWeaver → execute).
func BenchmarkPipeline(b *testing.B) { benchCase(b, 1, false) }

// BenchmarkCaseStudy1 measures the Case Study 1 workflow under the
// paper's restricted registry (core Nautilus functions only).
func BenchmarkCaseStudy1(b *testing.B) {
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := arachnet.New(
		arachnet.WithSmallWorld(7), arachnet.WithRegistry(sub),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudy2 measures the multi-disaster workflow.
func BenchmarkCaseStudy2(b *testing.B) { benchCase(b, 2, false) }

// BenchmarkCaseStudy3 measures the cascading-failure workflow
// (multi-framework integration).
func BenchmarkCaseStudy3(b *testing.B) { benchCase(b, 3, true) }

// BenchmarkCaseStudy4 measures the forensic investigation.
func BenchmarkCaseStudy4(b *testing.B) { benchCase(b, 4, true) }

// BenchmarkRegistryCompactness is the A1 ablation: planning cost over
// the compact builtin registry versus one bloated with irrelevant
// entries — the paper's rationale for capability-level registries over
// full codebase exposure.
func BenchmarkRegistryCompactness(b *testing.B) {
	for _, size := range []int{0, 100, 400} {
		b.Run(fmt.Sprintf("extra=%d", size), func(b *testing.B) {
			reg := arachnet.BuiltinRegistry()
			for i := 0; i < size; i++ {
				err := reg.Register(arachnet.Capability{
					Name:        fmt.Sprintf("bloat%d.filler", i),
					Framework:   fmt.Sprintf("bloat%d", i%17),
					Description: "an implementation detail that should never be planned over",
					Outputs: []arachnet.Port{{
						Name: "noise",
						Type: arachnet.DataType(fmt.Sprintf("bloat.t%d", i)),
					}},
					Impl: func(c *arachnet.Call) error { return nil },
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			sys, err := arachnet.New(
				arachnet.WithSmallWorld(7), arachnet.WithRegistry(reg),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCuratorMining is the A3 experiment: registry evolution cost
// across repeated successful runs.
func BenchmarkCuratorMining(b *testing.B) {
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := arachnet.New(
			arachnet.WithSmallWorld(7), arachnet.WithRegistry(sub.Clone()),
		)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// Curation stays on: registry evolution is what this measures.
		if _, err := sys.Ask(ctx, benchQueries[1]); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-4 cable failure"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskStreamDrain measures the full event path: the same run
// as BenchmarkPipeline, consumed by draining AskStream. The delta
// against BenchmarkPipeline is the cost of channel-based delivery; the
// acceptance bar for the streaming redesign is ≤5% over plain Ask.
func BenchmarkAskStreamDrain(b *testing.B) {
	sys := benchSystem(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ev := range sys.AskStream(ctx, benchQueries[1], arachnet.AskWithoutCuration()) {
			if d, ok := ev.(*arachnet.Done); ok && d.Err != nil {
				b.Fatal(d.Err)
			}
		}
	}
}

// BenchmarkAskObserved measures Ask with a registered (no-op)
// observer: the inline event path without any channel.
func BenchmarkAskObserved(b *testing.B) {
	sys := benchSystem(b, false)
	nop := arachnet.ObserverFunc(func(arachnet.Event) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration(), arachnet.AskObserver(nop)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitWait measures per-job overhead of the async queue
// versus calling Ask directly: a Job with its event log and its own
// goroutine per run.
func BenchmarkSubmitWait(b *testing.B) {
	sys := benchSystem(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := sys.Submit(ctx, benchQueries[1], arachnet.AskWithoutCuration())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskAdmitted is BenchmarkAskWarmDefault on a System attached
// to a shared Scheduler, the way arachnet-serve answers POST /v1/ask:
// every Ask takes a run slot, runs inline and hands the slot back. The
// delta against BenchmarkAskWarmDefault is the admission layer's cost,
// against BenchmarkSubmitWait the Job layer it replaces.
func BenchmarkAskAdmitted(b *testing.B) {
	sys := benchSystem(b, false)
	if err := sys.SetScheduler(arachnet.NewScheduler(0, 0), "bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskWarmCache measures fully memoized serving: the plan
// cache skips the three planning agents and the step cache serves
// every pure step, so this is the repeated-query fast path. The PR 5
// acceptance bar is ≥ 5× faster than the cold path below.
func BenchmarkAskWarmCache(b *testing.B) {
	sys := benchSystem(b, false)
	if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskWarmDefault is BenchmarkAskWarmCache with default
// options, the way servers run: curation stays on, and the warm-up
// wraps the 512+64 observation window first, so every timed ask pushes
// into a full window and retires the oldest observations every 64
// asks. The target is within 2x of BenchmarkAskWarmCache.
func BenchmarkAskWarmDefault(b *testing.B) {
	sys := benchSystem(b, false)
	for i := 0; i < 600; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskColdCache measures the cache-miss path: caches enabled
// (so fingerprinting and write-back are paid) but flushed before every
// iteration. The flush runs inside the timed region on purpose —
// clearing the handful of entries one Ask leaves behind costs well
// under a microsecond, whereas excluding it via StopTimer/StartTimer
// would stop the world (ReadMemStats) every iteration and inflate the
// measurement far more than the flush itself. The delta against
// BenchmarkAskNoCache is the memoization overhead on a miss; the PR 5
// acceptance bar is ≤ 5% over the PR 2 no-cache baseline.
func BenchmarkAskColdCache(b *testing.B) {
	sys := benchSystem(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SetCacheLimits(0, 0, 0) // flush
		sys.SetCacheLimits(arachnet.DefaultPlanCacheEntries,
			arachnet.DefaultStepCacheEntries, arachnet.DefaultStepCacheBytes)
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskNoCache measures the cache-bypass path (AskNoCache): no
// fingerprints, no lookups — the PR 2 serving path, kept as the
// trajectory baseline.
func BenchmarkAskNoCache(b *testing.B) {
	sys := benchSystem(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration(), arachnet.AskNoCache()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratedCode measures SolutionWeaver's code generation in
// isolation (re-asking with curation off re-runs the whole pipeline;
// the LoC table itself comes from cmd/arachnet-bench -loc).
func BenchmarkGeneratedCode(b *testing.B) {
	sys := benchSystem(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Ask(ctx, benchQueries[4], arachnet.AskWithoutCuration())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Solution.LoC == 0 {
			b.Fatal("no code generated")
		}
	}
}

// benchFleetCase measures the CS1 fan-out workflow served through a
// worker fleet of n shards. The restricted CS1 registry forces the
// extract_ips → locate_ips chain, whose steps scatter-gather across
// the fleet; n=0 is the inline-execution baseline.
func benchFleetCase(b *testing.B, n int) {
	b.Helper()
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		b.Fatal(err)
	}
	opts := []arachnet.Option{arachnet.WithSmallWorld(7), arachnet.WithRegistry(sub)}
	if n > 0 {
		opts = append(opts, arachnet.WithFleet(n))
	}
	sys, err := arachnet.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	if f := sys.Fleet(); f != nil {
		defer f.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskFleet compares inline execution against sharded fleets
// on the scatter-gather CS1 workflow (PR 8 trajectory point).
func BenchmarkAskFleet(b *testing.B) {
	for _, n := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("fleet=%d", n), func(b *testing.B) { benchFleetCase(b, n) })
	}
}
