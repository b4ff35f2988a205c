// Command perfbench is the repository benchmark. It boots the HTTP
// serving tier in-process (core.NewEnvironment, serve.NewServer with
// the default tenant) behind a loopback listener, drives POST /v1/ask
// from seeded closed-loop clients, checks every answer, and prints its
// metrics by name and unit. The last line of standard output is one
// JSON object: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a second, traced pass over the same seeded requests.
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
//
// Workloads and their configuration live in spec.json, which the
// binary embeds.
package main

import (
	"cmp"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// procStart approximates process start: set-up time counts from here.
var procStart = time.Now()

//go:embed spec.json
var specJSON []byte

type benchSpec struct {
	Traffic        string              `json:"traffic"`
	RequestOptions string              `json:"request_options"`
	Workloads      map[string]workload `json:"workloads"`
	Capabilities   []string            `json:"capabilities"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: hot or novel")
	seed := flag.Uint64("seed", 1, "request-generator seed")
	seconds := flag.Int("seconds", 10, "seconds of asking per pass")
	trace := flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, d time.Duration, traced bool) error {
	var spec benchSpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	w, ok := spec.Workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("workload %s: %s\n", name, w.Why)
	fmt.Printf("config: world=full world_seed=%d scenario_seed=%d GOMAXPROCS=%d clients=%d loop=closed seed=%d seconds=%v\n",
		w.WorldSeed, w.ScenarioSeed, runtime.GOMAXPROCS(0), w.Clients, seed, d.Seconds())
	fmt.Println("request options:", spec.RequestOptions)
	fmt.Println("traffic:", spec.Traffic)

	var ref roundCounts
	passRun := func(p *pass, t0 time.Time) error {
		ctx := context.Background()
		if name == "hot" {
			return runHot(ctx, p, w, seed, d, t0)
		}
		return runNovel(ctx, p, w, d, t0, &ref)
	}
	u := newPass(false)
	if err := passRun(u, procStart); err != nil {
		return err
	}
	res := result{Attempted: u.attempted, Failed: u.failed, Metrics: endToEnd(u)}
	errs := []error{u.firstErr}
	mismatches := u.mismatches
	if traced {
		t := newPass(true)
		if err := passRun(t, time.Now()); err != nil {
			return err
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Metrics = perLayer(u, t, spec.Capabilities)
		errs = append(errs, t.firstErr)
		mismatches += t.mismatches
		if err := t.tr.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed)); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	res.Correct = res.Failed == 0
	for _, err := range errs {
		if err != nil {
			res.Correct = false
			fmt.Println("check failed:", err)
		}
	}
	if mismatches > 0 {
		// A flag, not a failure: the answers passed the gate, but a
		// count that should depend only on the stream did not repeat.
		fmt.Printf("exact-count self-check FLAG: %d round(s) differ from the first round: %+v\n", mismatches, u.rounds)
	}
	for n, v := range res.Metrics {
		if math.IsNaN(v.Value) { // no samples: every ask or injection failed
			res.Metrics[n] = metric{0, v.Unit}
		}
	}
	report(res, u)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd derives the end-to-end metrics from the untraced pass.
// throughput_rps and heap_peak_mb are medians over the pass's
// segments, which a burst of host contention within a run moves less
// than it moves the pooled figures. latency_p50_ms is over all
// measured asks: on hot it lies where the asks that skip curation give
// way to those that run it, and one segment's median can land on
// either side. CPU and allocation are totals per ask.
func endToEnd(u *pass) map[string]metric {
	asks := float64(max(u.asks, 1))
	return map[string]metric{
		"setup_s":          {median(u.setups), "s"},
		"latency_p50_ms":   {median(u.latency), "ms"},
		"throughput_rps":   {segMedian(u.segs, func(s segment) float64 { return float64(len(s.latency)) / s.wall.Seconds() }), "1/s"},
		"ok_ratio":         {float64(u.attempted-u.failed) / float64(max(u.attempted, 1)), "ratio"},
		"cpu_ms_per_req":   {float64(u.cpu.Nanoseconds()) / 1e6 / asks, "ms"},
		"alloc_kb_per_req": {float64(u.alloc) / 1024 / asks, "KiB"},
		"heap_peak_mb":     {segMedian(u.segs, func(s segment) float64 { return float64(s.heapPeak) / (1 << 20) }), "MiB"},
	}
}

// perLayer derives the per-layer metrics from the traced pass t; the
// tracing overhead compares it with the untraced pass u. Tail latency
// and subscription deltas come from u. latency_p99_ms is a per-layer
// metric, not an end-to-end one, because it follows the host's speed
// more than any bound allows (see spec.json).
func perLayer(u, t *pass, capabilities []string) map[string]metric {
	st := t.tr.selfTimes()
	asks := float64(max(t.asks, 1))
	m := map[string]metric{
		"serve.handler_us":           {st["serve.handler"], "us"},
		"http.loopback_us":           {st["http.client"], "us"},
		"serve.resp_kb":              {float64(t.respBytes) / 1024 / asks, "KiB"},
		"jobs.overhead_us":           {mean(t.tr.jobsOver), "us"},
		"scheduler.queued_max":       {float64(u.queuedMax), "count"}, // the traced pass queues twin jobs too
		"plan_cache.hit_ratio":       {t.plan.HitRatio(), "ratio"},
		"step_cache.hit_ratio":       {t.step.HitRatio(), "ratio"},
		"plan_cache.evictions":       {float64(t.plan.Evictions), "count"},
		"step_cache.evictions":       {float64(t.step.Evictions), "count"},
		"querymind.us":               {st["querymind"], "us"},
		"workflowscout.us":           {st["workflowscout"], "us"},
		"solutionweaver.us":          {st["solutionweaver"], "us"},
		"workflow.compile_us":        {st["workflow.compile"], "us"},
		"workflow.steps_fresh":       {float64(t.stepsFresh) / asks, "count"},
		"workflow.steps_cached":      {float64(t.stepsCached) / asks, "count"},
		"registrycurator.curate_us":  {st["registrycurator.curate"], "us"},
		"registrycurator.window":     {float64(t.window), "count"},
		"env.inject_ms":              {st["serve.admin"] / 1e3, "ms"},
		"traceroute.campaign_ms":     {st["traceroute.campaign"] / 1e3, "ms"},
		"bgp.table_ms":               {st["bgp.table"] / 1e3, "ms"},
		"subscribe.reexec_ms":        {st["subscribe.reexec"] / 1e3, "ms"},
		"latency_p99_ms":             {segMedian(u.segs, func(s segment) float64 { return quantile(s.latency, 0.99) }), "ms"},
		"subscribe.delta_p50_ms":     {median(u.delta), "ms"},
		"subscribe.delta_p90_ms":     {quantile(u.delta, 0.9), "ms"},
		"subscribe.steps_fresh":      {float64(t.subFresh) / float64(max(t.deltas, 1)), "count"},
		"subscribe.steps_cached":     {float64(t.subCached) / float64(max(t.deltas, 1)), "count"},
		"subscribe.verdicts_agreed":  {float64(t.verdictsAgreed), "count"},
		"subscribe.verdicts_checked": {float64(t.verdictsChecked), "count"},
		"go.gc_cycles_per_kreq":      {float64(t.gcCycles) / asks * 1e3, "count"},
		"go.gc_pause_ms":             {float64(t.gcPauseNS) / 1e6 / asks * 1e3, "ms"},
		"trace.overhead_p50_ms":      {median(t.latency) - median(u.latency), "ms"},
		"trace.overhead_cpu_ms":      {(float64(t.cpu.Nanoseconds())/asks - float64(u.cpu.Nanoseconds())/float64(max(u.asks, 1))) / 1e6, "ms"},
		"exact.mismatches":           {float64(u.mismatches + t.mismatches), "count"},
	}
	// serve.overhead_us: handler time not spent in the pipeline run.
	var over []float64
	for req, ns := range t.tr.handlerDurations() {
		if el, ok := t.elapsedUS[req]; ok {
			over = append(over, float64(ns)/1e3-float64(el))
		}
	}
	m["serve.overhead_us"] = metric{mean(over), "us"}
	// Exact counts: one round's on novel, the measured phase's on hot.
	counts := roundCounts{PlanHits: t.plan.Hits, PlanMisses: t.plan.Misses, StepHits: t.step.Hits,
		StepMisses: t.step.Misses, Promotions: t.promoted}
	if len(t.rounds) > 0 {
		counts = t.rounds[0]
	}
	m["plan_cache.hits"] = metric{float64(counts.PlanHits), "count"}
	m["plan_cache.misses"] = metric{float64(counts.PlanMisses), "count"}
	m["step_cache.hits"] = metric{float64(counts.StepHits), "count"}
	m["step_cache.misses"] = metric{float64(counts.StepMisses), "count"}
	m["registrycurator.promotions"] = metric{float64(counts.Promotions), "count"}

	var freshUS int64
	var freshN int
	for name, us := range t.capUS {
		freshUS += us
		freshN += t.capRun[name]
	}
	m["workflow.fresh_step_us"] = metric{float64(freshUS) / float64(max(freshN, 1)), "us"}
	for _, name := range capabilities {
		m["capability."+name+"_us"] = metric{float64(t.capUS[name]) / float64(max(t.capRun[name], 1)), "us"}
	}
	byTotal := slices.Collect(maps.Keys(t.capUS))
	slices.SortFunc(byTotal, func(a, b string) int { return cmp.Compare(t.capUS[b], t.capUS[a]) })
	fmt.Println("capabilities by total fresh time (us, runs):")
	for _, name := range byTotal[:min(len(byTotal), 16)] {
		fmt.Printf("  %-40s %10d %6d\n", name, t.capUS[name], t.capRun[name])
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// report prints every metric by name and unit, with sample counts.
func report(res result, u *pass) {
	fmt.Printf("samples: %d measured asks, %d deltas, %d set-ups; attempted %d, failed %d\n",
		len(u.latency), len(u.delta), len(u.setups), res.Attempted, res.Failed)
	fmt.Printf("set-ups (s): %.3f\n", u.setups)
	var qs []float64
	for _, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		qs = append(qs, quantile(u.latency, q))
	}
	fmt.Printf("latency deciles (ms): %.2f\n", qs)
	var rps, p99 []float64
	for _, s := range u.segs {
		rps = append(rps, float64(len(s.latency))/s.wall.Seconds())
		p99 = append(p99, quantile(s.latency, 0.99))
	}
	fmt.Printf("segments: throughput (1/s) %.0f, latency p99 (ms) %.2f\n", rps, p99)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
