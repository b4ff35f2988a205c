package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/fleet"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// Stage names, in pipeline order. The first four are passed to
// expert-mode review hooks; all five label PipelineError.Stage
// (curation failures are reported, not reviewed).
const (
	StageProblem  = "querymind"
	StageDesign   = "workflowscout"
	StageSolution = "solutionweaver"
	StageResult   = "execution"
	StageCuration = "registrycurator"
)

// ReviewHook inspects (and may veto) the artifact leaving each of the
// four pipeline stages when a call runs in expert mode. Returning an
// error aborts the pipeline.
type ReviewHook func(stage string, artifact any) error

// askConfig collects per-call serving parameters.
type askConfig struct {
	observers   []Observer
	curate      bool
	timeout     time.Duration
	parallelism int
	noCache     bool
}

// AskOption configures one Ask, AskStream, AskBatch or Submit call.
// Options are per-call: a single shared System serves expert-reviewed,
// curation-free, and deadline-bound requests side by side.
type AskOption func(*askConfig)

// AskExpert runs the call in expert mode: hook reviews the artifact
// leaving each of the four pipeline stages (problem, design, solution,
// result) and may veto it. Expert review is implemented as an ordinary
// event observer — AskExpert(h) is AskObserver over the
// stage-completion events.
func AskExpert(hook ReviewHook) AskOption {
	if hook == nil {
		return func(*askConfig) {}
	}
	return AskObserver(expertReviewer(hook))
}

// AskObserver attaches an event observer to the call. Observers see
// every event of the run (stages, steps, curation, Done) and may veto
// the pipeline by returning an error. Multiple observers fire in
// attachment order. Within one run, calls are serialized on the
// pipeline's goroutine; an observer passed to AskBatch is shared by
// the pool's workers and must be safe for concurrent use.
func AskObserver(obs Observer) AskOption {
	return func(c *askConfig) {
		if obs != nil {
			c.observers = append(c.observers, obs)
		}
	}
}

// AskWithoutCuration disables post-run registry evolution for this
// call (curation is on by default).
func AskWithoutCuration() AskOption {
	return func(c *askConfig) { c.curate = false }
}

// AskNoCache bypasses the System's memoization for this call: the
// plan cache is neither consulted nor populated and every workflow
// step executes even if a cached result exists. Use it to force fresh
// numbers (benchmark cold paths, A/B-ing a promotion) or when a
// capability outside the builtin catalog is registered Pure but the
// caller knows its inputs don't capture everything that matters.
func AskNoCache() AskOption {
	return func(c *askConfig) { c.noCache = true }
}

// AskTimeout bounds the call's wall-clock time, on top of whatever
// deadline the caller's context already carries. Non-positive
// durations are explicitly ignored — the call runs unbounded — rather
// than arming an already-expired deadline. The budget covers pipeline
// execution, not time spent waiting for a run slot.
func AskTimeout(d time.Duration) AskOption {
	return func(c *askConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// AskParallelism bounds concurrency: how many independent workflow
// steps an Ask executes at once, and for AskBatch the total budget —
// divided between concurrent queries and their steps. Default
// GOMAXPROCS; values below 1 are explicitly ignored and the default
// applies.
func AskParallelism(n int) AskOption {
	return func(c *askConfig) {
		if n > 0 {
			c.parallelism = n
		}
	}
}

func newAskConfig(opts []AskOption) askConfig {
	cfg := askConfig{curate: true, parallelism: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// System is the assembled ArachNet pipeline over one environment and
// registry. A System is safe for concurrent use: any number of
// goroutines may Ask at once, while the curator evolves the shared
// registry behind its write lock.
type System struct {
	env *Environment
	reg *registry.Registry

	queryMind *querymind.Agent
	scout     *workflowscout.Agent
	weaver    *solutionweaver.Agent
	curator   *registrycurator.Agent

	mu         sync.Mutex // guards history, window and promotions
	history    []registrycurator.Observation
	promotions []registrycurator.Promotion
	// window mines history incrementally as observations enter and
	// leave it, so curation costs O(new observation) per ask.
	window *registrycurator.Window

	curateMu sync.Mutex           // serializes curation passes
	pass     registrycurator.Pass // guarded by curateMu

	// jobs is the serving subsystem (see jobs.go): the scheduler runs
	// take slots from and the async job table.
	jobs jobTable

	// subs indexes live standing queries (see subscribe.go).
	subs subTable

	// planCache memoizes the planning half of the pipeline (QueryMind →
	// WorkflowScout → SolutionWeaver) keyed by normalized query,
	// registry generation and environment fingerprint; stepCache
	// memoizes pure capability executions across runs (see cache.go).
	// Both are shared by every serving surface.
	planCache *lruCache
	stepCache *lruCache

	// fleet, when set, dispatches pure shard-partitionable steps to a
	// sharded worker pool instead of running them inline (see
	// internal/fleet and scatter.go). Guarded by fleetMu so SetFleet
	// is safe concurrently with serving.
	fleetMu sync.RWMutex
	fleet   *fleet.Fleet

	// engineSlot caches the last engine built for serving: engines are
	// stateless and safe for concurrent runs (parallelism and the step
	// observer are per-run arguments), so every Ask with the same (env
	// fingerprint, fleet, cache on/off) shares one instead of
	// re-assembling options and closures per call.
	engineSlot atomic.Pointer[engineSlot]
}

// engineSlot is one memoized engine and the key it was built under.
type engineSlot struct {
	envFP   string
	fleet   *fleet.Fleet
	noCache bool
	eng     *workflow.Engine
}

// maxHistory bounds the observation window curation mines. Patterns
// need support 2 to promote, so recurring shapes are caught long
// before the window slides; the bound keeps the window's footprint
// flat in long-lived serving processes.
const maxHistory = 512

// historySlack delays trimming until the window overshoots by this
// much, so the O(maxHistory) compaction and the window's Drop (which
// re-sums each retired pattern) are amortized across many calls
// instead of paid on every Ask of a saturated server — this keeps the
// warm (fully cached) serving path cheap.
const historySlack = 64

// NewSystem assembles a pipeline. A nil registry uses the full builtin
// catalog.
func NewSystem(env *Environment, reg *registry.Registry) (*System, error) {
	if env == nil {
		return nil, fmt.Errorf("core: nil environment")
	}
	if reg == nil {
		reg = BuiltinRegistry()
	}
	env.ensureFingerprint()
	curator := registrycurator.New()
	return &System{
		env: env, reg: reg,
		queryMind: querymind.New(),
		scout:     workflowscout.New(),
		weaver:    solutionweaver.New(),
		curator:   curator,
		window:    curator.NewWindow(),
		planCache: newLRUCache(DefaultPlanCacheEntries, 0),
		stepCache: newLRUCache(DefaultStepCacheEntries, DefaultStepCacheBytes),
	}, nil
}

// SetCacheLimits rebounds the System's memoization: planEntries bounds
// the plan cache, stepEntries and stepBytes the step cache. A
// non-positive entry bound disables that cache (and flushes it); a
// non-positive stepBytes leaves the step cache bounded by entries
// only. Unlike SetJobLimits it may be called at any time — shrinking
// evicts immediately and in-flight runs simply miss.
func (s *System) SetCacheLimits(planEntries, stepEntries int, stepBytes int64) {
	s.planCache.SetLimits(planEntries, 0)
	s.stepCache.SetLimits(stepEntries, stepBytes)
}

// CacheStats snapshots hit/miss/eviction counters and current
// footprint for the plan and step caches, plus — when a fleet is
// attached — per-worker shard and cache counters.
func (s *System) CacheStats() CacheStats {
	st := CacheStats{
		Plan: s.planCache.Counters(),
		Step: s.stepCache.Counters(),
	}
	if f := s.Fleet(); f != nil {
		fs := f.Stats()
		st.Fleet = &fs
	}
	return st
}

// CacheStats is the observable state of a System's two caches.
type CacheStats struct {
	// Plan counts planning-layer memoization (whole-pipeline plans).
	Plan CacheCounters `json:"plan"`
	// Step counts execution-layer memoization (pure capability steps).
	Step CacheCounters `json:"step"`
	// Fleet, when the System serves over a worker fleet, snapshots
	// dispatch counters and per-worker shard inventory/caches.
	Fleet *fleet.Stats `json:"fleet,omitempty"`
}

// SetFleet attaches a sharded worker fleet: pure steps of capabilities
// with scatter specs are dispatched to the shard owning their data
// (and fan-out inputs scatter over all owning shards, gathering
// deterministically), instead of executing inline. The builtin
// catalog's scatter specs are installed on f. A nil fleet detaches
// (subsequent runs execute fully local). The caller keeps ownership
// of f and must Close it when done. Safe to call concurrently with
// serving; in-flight runs keep the dispatcher they started with.
func (s *System) SetFleet(f *fleet.Fleet) {
	if f != nil {
		installScatterSpecs(f)
	}
	s.fleetMu.Lock()
	s.fleet = f
	s.fleetMu.Unlock()
}

// Fleet returns the attached worker fleet, or nil.
func (s *System) Fleet() *fleet.Fleet {
	s.fleetMu.RLock()
	defer s.fleetMu.RUnlock()
	return s.fleet
}

// Registry exposes the live registry (it evolves as the curator
// promotes patterns).
func (s *System) Registry() *registry.Registry { return s.reg }

// Environment exposes the execution environment.
func (s *System) Environment() *Environment { return s.env }

// Promotions returns every composite promoted so far.
func (s *System) Promotions() []registrycurator.Promotion {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]registrycurator.Promotion, len(s.promotions))
	copy(out, s.promotions)
	return out
}

// History returns the executed-workflow observations recorded so far.
func (s *System) History() []registrycurator.Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]registrycurator.Observation, len(s.history))
	copy(out, s.history)
	return out
}

// Report is the full record of one pipeline run. The JSON tags keep
// serialized keys stable and lowercase for the HTTP serving tier.
type Report struct {
	Query    string                   `json:"query"`
	Spec     nlq.Spec                 `json:"spec,omitempty"`
	Problem  *querymind.ProblemSpec   `json:"problem,omitempty"`
	Design   *workflowscout.Design    `json:"design,omitempty"`
	Solution *solutionweaver.Solution `json:"solution,omitempty"`
	Result   *workflow.Result         `json:"result,omitempty"`
	// Promotions performed by the curator after this run.
	Promotions []registrycurator.Promotion `json:"promotions,omitempty"`
	Elapsed    time.Duration               `json:"elapsed,omitempty"`
}

// Ask runs the full four-agent pipeline on a natural-language query:
// parse → QueryMind → WorkflowScout → SolutionWeaver → execute →
// RegistryCurator. The context cancels the call between stages and
// mid-execution; failures surface as *PipelineError. The partially
// filled Report is returned alongside any error, with Elapsed always
// stamped.
//
// Ask is a synchronous drain of the same event-emitting pipeline that
// backs AskStream and Submit — observers registered with AskObserver
// (including expert review) fire inline; no channel or goroutine is
// involved, so a plain Ask pays no event-delivery overhead.
//
// On a System attached to a shared Scheduler, Ask first takes a run
// slot. A full queue, a closed System or ctx ending while it waits
// fails it before any stage runs, with that error as is (not a
// *PipelineError) and a nil Report.
func (s *System) Ask(ctx context.Context, query string, opts ...AskOption) (*Report, error) {
	cfg := newAskConfig(opts)
	em := &emitter{query: query, observers: cfg.observers}
	rep, err := s.admitted(ctx, query, cfg, em)
	if em.active() {
		em.emit(&Done{Report: rep, Err: err})
	}
	return rep, err
}

// streamBuffer decouples the pipeline from the consumer: a run can get
// this many events ahead before event emission blocks on the reader.
const streamBuffer = 16

// AskStream is the non-blocking sibling of Ask: it starts the pipeline
// in a background goroutine and returns a channel of typed events —
// stage transitions, per-step execution, curation promotions — ending
// with a Done event carrying exactly what Ask would have returned. The
// channel is closed after Done.
//
// The consumer must drain the channel (or cancel ctx) — the pipeline
// blocks once the consumer falls streamBuffer events behind, and after
// ctx is cancelled an event untaken within a grace period drops the
// rest, so an abandoned stream cannot wedge the run. The run takes a
// slot as Ask does; an admission failure arrives as Done's error.
func (s *System) AskStream(ctx context.Context, query string, opts ...AskOption) <-chan Event {
	cfg := newAskConfig(opts)
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan Event, streamBuffer)
	abandoned := false // emit calls are serialized per run
	em := &emitter{query: query, observers: cfg.observers, sink: func(ev Event) {
		abandoned = abandoned || !deliver(ch, ev, ctx.Done())
	}}
	go func() {
		defer close(ch)
		rep, err := s.admitted(ctx, query, cfg, em)
		em.emit(&Done{Report: rep, Err: err})
	}()
	return ch
}

// run is the single pipeline implementation behind Ask, AskStream and
// submitted jobs. It emits events through em as stages and steps
// progress; an observer veto (non-nil error from emit) aborts the run
// as a *PipelineError at the vetoed stage. The terminal Done event is
// emitted by the caller, which knows how the run is being served.
func (s *System) run(ctx context.Context, query string, cfg askConfig, em *emitter) (rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	start := time.Now()
	rep = &Report{Query: query}
	defer func() { rep.Elapsed = time.Since(start) }()

	solution, compiled, err := s.plan(ctx, query, cfg, em, rep)
	if err != nil {
		return rep, err
	}

	// Execution over the parallel DAG engine. The step bridge surfaces
	// per-step events; a veto there cancels the run mid-workflow. An
	// inactive emitter (no observers, no sink — the common warm Ask)
	// skips event construction and the bridge entirely: nothing could
	// see the events or veto through them.
	active := em.active()
	if active {
		if err := em.emit(&StageStarted{Stage: StageResult}); err != nil {
			return rep, pipelineErr(StageResult, query, err)
		}
	}
	exCtx, cancelEx := context.WithCancel(ctx)
	defer cancelEx()
	var bridge *stepBridge
	var stepObs workflow.Observer
	if active {
		bridge = &stepBridge{em: em, cancel: cancelEx}
		stepObs = bridge
	}
	if compiled == nil {
		// No cached plan (AskNoCache, or a plan that failed to compile):
		// lower a one-shot plan. A workflow that fails Compile fails
		// Validate with the same error.
		compiled, err = workflow.Compile(solution.Workflow, s.reg)
	}
	var result *workflow.Result
	if err == nil {
		result, err = s.engineFor(cfg.noCache).RunCompiled(exCtx, compiled, cfg.parallelism, stepObs)
	}
	rep.Result = result
	obs := registrycurator.Observation{Workflow: solution.Workflow, Result: result, Err: err}
	s.mu.Lock()
	s.history = append(s.history, obs)
	s.window.Push(obs)
	if len(s.history) > maxHistory+historySlack {
		trimmed := len(s.history) - maxHistory
		n := copy(s.history, s.history[trimmed:])
		clear(s.history[n:])
		s.history = s.history[:n]
		s.window.Drop(trimmed)
	}
	s.mu.Unlock()
	if bridge != nil && bridge.veto != nil {
		return rep, pipelineErr(StageResult, query, bridge.veto)
	}
	if err != nil {
		return rep, pipelineErr(StageResult, query, err)
	}
	if active {
		if err := em.emit(&StageCompleted{Stage: StageResult, Artifact: result}); err != nil {
			return rep, pipelineErr(StageResult, query, err)
		}
	}

	// Registry evolution (RegistryCurator). Serialized so concurrent
	// calls never race to promote the same pattern.
	if cfg.curate {
		if active {
			if err := em.emit(&StageStarted{Stage: StageCuration}); err != nil {
				return rep, pipelineErr(StageCuration, query, err)
			}
		}
		promos, err := s.curate()
		if err != nil {
			return rep, pipelineErr(StageCuration, query, err)
		}
		rep.Promotions = promos
		if active {
			for _, p := range promos {
				if err := em.emit(&CurationPromoted{Promotion: p}); err != nil {
					return rep, pipelineErr(StageCuration, query, err)
				}
			}
			if err := em.emit(&StageCompleted{Stage: StageCuration, Artifact: promos}); err != nil {
				return rep, pipelineErr(StageCuration, query, err)
			}
		}
	}
	return rep, nil
}

// facetKeyer is the engine env-keyer closure shared by every engine
// the System builds: one method value instead of a fresh closure per
// call.
func (s *System) facetKeyer(capb *registry.Capability) string {
	return s.env.FacetFingerprint(capb.Reads)
}

// engineFor returns the memoized engine for the current environment
// fingerprint and fleet, with or without the step cache, rebuilding it
// when any of the three changed since the last call. Engines are
// stateless, so concurrent runs may share the cached one; a race here
// at worst builds one redundant engine.
func (s *System) engineFor(noCache bool) *workflow.Engine {
	fp := s.env.Fingerprint()
	f := s.Fleet()
	if sl := s.engineSlot.Load(); sl != nil && sl.envFP == fp && sl.fleet == f && sl.noCache == noCache {
		return sl.eng
	}
	var engineOpts []workflow.EngineOption
	if !noCache {
		// Facet-scoped cache keys: steps reading only the immutable
		// world facet keep their fingerprints across scenario
		// injections, so a standing query's re-run executes only the
		// scenario-dirty subgraph and replays the rest from cache.
		engineOpts = append(engineOpts,
			workflow.WithCache(stepCacheAdapter{s.stepCache}, fp),
			workflow.WithEnvKeyer(s.facetKeyer))
	}
	if f != nil {
		engineOpts = append(engineOpts, workflow.WithDispatcher(f))
	}
	eng := workflow.NewEngine(s.reg, s.env, engineOpts...)
	s.engineSlot.Store(&engineSlot{envFP: fp, fleet: f, noCache: noCache, eng: eng})
	return eng
}

// planEntry is one memoized planning outcome: everything the three
// planning agents produce for a query against one registry generation
// and environment, plus the plan compiled from it. Entries are shared
// across runs and must be treated as immutable — the pipeline only
// ever reads these artifacts after the planning stages complete.
type planEntry struct {
	query    string // original query text (snapshot replay re-plans it)
	spec     nlq.Spec
	problem  *querymind.ProblemSpec
	design   *workflowscout.Design
	solution *solutionweaver.Solution
	// compiled is the workflow lowered against the registry generation
	// this entry is keyed by; nil when compilation failed (each run
	// then recompiles and reports the validation error).
	compiled *workflow.CompiledPlan
}

// planKeyPool recycles the byte buffers plan keys are assembled in, so
// a warm Ask's cache probe allocates nothing.
var planKeyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 160)
	return &b
}}

// appendPlanKey builds the plan-cache key into b. The registry
// generation makes a curation promotion invalidate every previously
// cached plan: the generation is read before planning starts, so a
// plan computed against the pre-promotion catalog is only ever served
// to callers that also observed the pre-promotion generation.
// Collapsing ASCII whitespace runs is the only normalization applied
// to the query — anything stronger risks conflating queries the
// parser distinguishes (and under-normalizing merely costs a
// duplicate cache entry, never a wrong hit).
func appendPlanKey(b []byte, query string, gen uint64, envFP string) []byte {
	pendingSpace := false
	for i := 0; i < len(query); i++ {
		c := query[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			pendingSpace = len(b) > 0
			continue
		}
		if pendingSpace {
			b = append(b, ' ')
			pendingSpace = false
		}
		b = append(b, c)
	}
	b = append(b, 0)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, 0)
	b = append(b, envFP...)
	return b
}

// bytesKey views b as a string without copying. Only for transient
// map probes (lruCache.Get does not retain its key); the caller must
// not let the string outlive b's contents.
func bytesKey(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// plan runs (or replays) the three planning stages — QueryMind,
// WorkflowScout, SolutionWeaver — filling rep and emitting stage
// events either way, so observers and expert review behave identically
// on hits and misses; cached replays mark their StageCompleted events
// Cached. A veto or failure surfaces as a *PipelineError at the
// corresponding stage. Alongside the solution it returns the compiled
// plan when one exists (cache-enabled calls whose workflow compiled).
func (s *System) plan(ctx context.Context, query string, cfg askConfig, em *emitter, rep *Report) (*solutionweaver.Solution, *workflow.CompiledPlan, error) {
	key := ""
	if !cfg.noCache {
		// The key is assembled in a pooled buffer and probed through a
		// no-copy string view; it is materialized as a real string only
		// on a miss, for Put. A warm hit allocates nothing here.
		kb := planKeyPool.Get().(*[]byte)
		buf := appendPlanKey((*kb)[:0], query, s.reg.Generation(), s.env.Fingerprint())
		v, ok := s.planCache.Get(bytesKey(buf))
		if !ok {
			key = string(buf)
		}
		*kb = buf[:0]
		planKeyPool.Put(kb)
		if ok {
			pe := v.(*planEntry)
			if !em.active() {
				// No observers, no sink: fill the report wholesale. The
				// per-stage replay below exists only to give observers
				// the same event sequence a fresh run produces.
				if err := ctx.Err(); err != nil {
					return nil, nil, pipelineErr(StageProblem, query, err)
				}
				rep.Spec, rep.Problem = pe.spec, pe.problem
				rep.Design = pe.design
				rep.Solution = pe.solution
				return pe.solution, pe.compiled, nil
			}
			// Fill rep stage by stage, just before each StageCompleted,
			// so a veto or cancellation mid-replay leaves the same
			// partial Report shape a fresh run would have left.
			for _, st := range []struct {
				stage    string
				artifact any
				fill     func()
			}{
				{StageProblem, pe.problem, func() { rep.Spec, rep.Problem = pe.spec, pe.problem }},
				{StageDesign, pe.design, func() { rep.Design = pe.design }},
				{StageSolution, pe.solution, func() { rep.Solution = pe.solution }},
			} {
				if err := ctx.Err(); err != nil {
					return nil, nil, pipelineErr(st.stage, query, err)
				}
				if err := em.emit(&StageStarted{Stage: st.stage}); err != nil {
					return nil, nil, pipelineErr(st.stage, query, err)
				}
				st.fill()
				if err := em.emit(&StageCompleted{Stage: st.stage, Artifact: st.artifact, Cached: true}); err != nil {
					return nil, nil, pipelineErr(st.stage, query, err)
				}
			}
			return pe.solution, pe.compiled, nil
		}
	}

	// Language analysis + problem decomposition (QueryMind).
	if err := ctx.Err(); err != nil {
		return nil, nil, pipelineErr(StageProblem, query, err)
	}
	if err := em.emit(&StageStarted{Stage: StageProblem}); err != nil {
		return nil, nil, pipelineErr(StageProblem, query, err)
	}
	rep.Spec = nlq.Parse(query, s.env.Catalog)
	data := s.env.Data()
	problem, err := s.queryMind.Analyze(rep.Spec, querymind.DataAvailability{
		HasCrossLayerMap: data.HasCrossLayerMap,
		MapCoverage:      data.MapCoverage,
		HasTraceArchive:  data.HasTraceArchive,
		HasBGPStream:     data.HasBGPStream,
		WindowDays:       data.WindowDays,
	})
	if err != nil {
		return nil, nil, pipelineErr(StageProblem, query, err)
	}
	rep.Problem = problem
	if err := em.emit(&StageCompleted{Stage: StageProblem, Artifact: problem}); err != nil {
		return nil, nil, pipelineErr(StageProblem, query, err)
	}

	// Solution space exploration (WorkflowScout).
	if err := ctx.Err(); err != nil {
		return nil, nil, pipelineErr(StageDesign, query, err)
	}
	if err := em.emit(&StageStarted{Stage: StageDesign}); err != nil {
		return nil, nil, pipelineErr(StageDesign, query, err)
	}
	design, err := s.scout.Design(problem, s.reg)
	if err != nil {
		return nil, nil, pipelineErr(StageDesign, query, err)
	}
	rep.Design = design
	if err := em.emit(&StageCompleted{Stage: StageDesign, Artifact: design}); err != nil {
		return nil, nil, pipelineErr(StageDesign, query, err)
	}

	// Implementation (SolutionWeaver).
	if err := ctx.Err(); err != nil {
		return nil, nil, pipelineErr(StageSolution, query, err)
	}
	if err := em.emit(&StageStarted{Stage: StageSolution}); err != nil {
		return nil, nil, pipelineErr(StageSolution, query, err)
	}
	solution, err := s.weaver.Weave(design.Chosen, s.reg)
	if err != nil {
		return nil, nil, pipelineErr(StageSolution, query, err)
	}
	rep.Solution = solution
	if err := em.emit(&StageCompleted{Stage: StageSolution, Artifact: solution}); err != nil {
		return nil, nil, pipelineErr(StageSolution, query, err)
	}

	var compiled *workflow.CompiledPlan
	if key != "" {
		// Lower the fresh plan while it enters the cache: compilation
		// shares the plan's invalidation exactly (the key carries the
		// registry generation and environment fingerprint it resolved
		// against). A workflow that fails to compile caches with a nil
		// artifact; run recompiles it and reports the error.
		compiled, _ = workflow.Compile(solution.Workflow, s.reg)
		pe := &planEntry{
			query: query, spec: rep.Spec, problem: problem,
			design: design, solution: solution, compiled: compiled,
		}
		// Plans are metadata-sized; charge a token amount so a byte
		// bound, if ever set, stays meaningful.
		s.planCache.Put(key, pe, int64(len(query))+int64(len(solution.Code))+512)
	}
	return solution, compiled, nil
}

// AskBatch serves many queries from one System, fanning out over a
// bounded worker pool (AskParallelism sets the bound). Duplicate
// queries within one batch are deduplicated (singleflight): each
// distinct query runs the pipeline once and every duplicate index
// shares the same *Report, so observers fire once per distinct query.
// Reports align with queries by index; failed queries leave their
// partial report in place and their *PipelineError joined into the
// returned error.
func (s *System) AskBatch(ctx context.Context, queries []string, opts ...AskOption) ([]*Report, error) {
	// Fast path: zero work means zero workers, channels and
	// allocations beyond the empty (non-nil) result slice.
	if len(queries) == 0 {
		return []*Report{}, nil
	}
	cfg := newAskConfig(opts)

	// Singleflight: collapse identical queries to one pipeline run.
	// Reports are read-only after a run, so duplicate indices can alias
	// the same *Report safely.
	firstIdx := make(map[string]int, len(queries))
	var distinct []int
	for i, q := range queries {
		if _, dup := firstIdx[q]; !dup {
			firstIdx[q] = i
			distinct = append(distinct, i)
		}
	}

	workers := cfg.parallelism
	if workers > len(distinct) {
		workers = len(distinct)
	}
	if workers < 1 {
		workers = 1
	}

	// Divide the concurrency budget between the pool and each run's
	// step parallelism, so AskParallelism(n) bounds total concurrency
	// instead of compounding to n².
	perCall := cfg.parallelism / workers
	if perCall < 1 {
		perCall = 1
	}
	callOpts := append(append([]AskOption{}, opts...), AskParallelism(perCall))

	reports := make([]*Report, len(queries))
	errs := make([]error, len(queries))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i], errs[i] = s.Ask(ctx, queries[i], callOpts...)
			}
		}()
	}
	for _, i := range distinct {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, q := range queries {
		if first := firstIdx[q]; first != i {
			// Duplicates share the run's Report; its error is already
			// represented once in the joined error.
			reports[i] = reports[first]
		}
	}
	return reports, errors.Join(errs...)
}

// curate runs one serialized curation pass, recording any
// promotions. The window says whether a pass is due; most asks leave
// every promotion input unchanged and return here without a pass. The
// candidates are snapshotted under mu and promoted outside it, so
// concurrent asks keep recording observations meanwhile. A failed pass
// is not recorded as done, so the next call retries it.
func (s *System) curate() ([]registrycurator.Promotion, error) {
	s.curateMu.Lock()
	defer s.curateMu.Unlock()
	gen := s.reg.Generation()
	s.mu.Lock()
	due := s.window.Pending(gen, &s.pass)
	s.mu.Unlock()
	if !due {
		return nil, nil
	}
	promos, err := s.curator.Promote(&s.pass, s.reg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.window.Done(&s.pass)
	s.promotions = append(s.promotions, promos...)
	s.mu.Unlock()
	return promos, nil
}
