package workflow

// Plan compilation and execution. Compile does every per-plan
// derivation exactly once — when the plan enters a cache, or once per
// Run for a one-shot plan — and RunCompiled walks the precomputed
// schedule:
//
//   - capability pointers are resolved at compile time (the registry
//     is immutable per generation, and plan caches key on the
//     generation, so the pointers stay valid exactly as long as the
//     plan itself);
//   - literal inputs are pre-canonicalized into the fingerprint
//     preimage, and the dependency schedule (index map, dependents
//     adjacency, indegrees, initial ready set) is precomputed;
//   - per-step fingerprint preimages are precomputed byte templates
//     with two kinds of runtime holes: the env-key suffix (substituted
//     per environment fingerprint) and 32-byte upstream digests
//     (substituted as upstream fingerprints resolve). A warm run hashes
//     nothing: the resolved fingerprint vector is memoized per
//     environment fingerprint on the CompiledPlan itself;
//   - scheduler scratch (indegree copy, ready queue) comes from a
//     sync.Pool, and per-step provenance/value-key strings that do not
//     depend on timings are preformatted, so a fully cached replay
//     allocates near-nothing. (Result, Values, Outputs and StepStats
//     escape to the caller and are never pooled.)
//
// Step caches (local and per-worker) and snapshot files key on the
// fingerprint digests, so their preimage layout is pinned by golden
// tests.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arachnet/internal/registry"
)

// CompiledPlan is the executable artifact of one validated Workflow
// against one registry generation. It is immutable after Compile
// (the memoized fingerprint vector is swapped atomically) and safe
// for concurrent RunCompiled calls.
type CompiledPlan struct {
	w     *Workflow
	index map[string]int // step ID → workflow index
	steps []compiledStep

	// Precomputed schedule: Ref-derived dependency graph.
	dependents [][]int
	indegree   []int // template; copied into pooled scratch per run
	ready0     []int
	nValues    int // total declared outputs across steps (Values presize)

	memoizable bool // at least one step has a fingerprint template

	// fp memoizes the resolved fingerprint vector for the most recent
	// environment fingerprint; fpMu serializes recomputation so
	// concurrent runs against a fresh environment hash once, not N
	// times.
	fp   atomic.Pointer[compiledFPs]
	fpMu sync.Mutex
}

type compiledFPs struct {
	envFP string
	fps   []string
}

// compiledStep is one step with every per-execution lookup and
// derivation resolved ahead of time.
type compiledStep struct {
	step         *Step
	capb         *registry.Capability
	dispatchable bool          // Pure and not pinned to the coordinator
	refs         []compiledRef // Ref inputs, for input-map assembly
	lits         []compiledLit // literal inputs, pre-extracted
	valueKeys    []string      // "stepID.port" per declared output
	cachedProv   string        // provenance line for a cache hit

	// Fingerprint preimage template (fpOK steps only): pre holds the
	// bytes up to and including the "env" label field; at resolve time
	// the env key is appended, then each segment's static bytes
	// followed by the named upstream's 32-byte digest.
	fpOK bool
	pre  []byte
	segs []fpSeg
}

type compiledRef struct {
	name string
	ref  string
}

type compiledLit struct {
	name string
	val  any
}

// fpSeg is one run of static preimage bytes optionally followed by an
// upstream step's digest (upstream < 0 means trailing static bytes).
type fpSeg struct {
	static   []byte
	upstream int
}

// fpField appends length-prefixed parts to a fingerprint preimage.
// Each part is length-prefixed so parts containing any byte sequence
// (literals come from arbitrary user queries) can never forge a field
// boundary and collide two distinct input sets. Step caches (local and
// per-worker) key on the resulting digests: the layout must not change.
func fpField(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(b, ':')
		b = append(b, p...)
	}
	return b
}

// Compile validates w against reg and lowers it into a CompiledPlan.
// The artifact is tied to reg's current contents: callers that key
// their plan caches on the registry generation (as core does) get
// invalidation for free; anyone else must discard the plan when the
// registry changes.
func Compile(w *Workflow, reg *registry.Registry) (*CompiledPlan, error) {
	if err := w.Validate(reg); err != nil {
		return nil, err
	}
	n := len(w.Steps)
	cp := &CompiledPlan{
		w:          w,
		index:      make(map[string]int, n),
		steps:      make([]compiledStep, n),
		dependents: make([][]int, n),
		indegree:   make([]int, n),
	}
	for i := range w.Steps {
		cp.index[w.Steps[i].ID] = i
	}
	for i := range w.Steps {
		s := &w.Steps[i]
		capb, err := reg.Get(s.Capability)
		if err != nil {
			return nil, err // unreachable after Validate; defensive
		}
		cs := &cp.steps[i]
		cs.step = s
		cs.capb = capb
		cs.dispatchable = capb.Pure && s.Affinity != AffinityCoordinator
		cs.cachedProv = fmt.Sprintf("step %s (%s): ok (cached)", s.ID, s.Capability)
		cs.valueKeys = make([]string, len(capb.Outputs))
		for oi, out := range capb.Outputs {
			cs.valueKeys[oi] = s.ID + "." + out.Name
		}
		cp.nValues += len(capb.Outputs)

		// Dependency edges, deduplicated per upstream step.
		from := map[int]bool{}
		for _, b := range s.Inputs {
			if !b.IsRef() {
				continue
			}
			src := cp.index[RefStepID(b.Ref)]
			if !from[src] {
				from[src] = true
				cp.dependents[src] = append(cp.dependents[src], i)
				cp.indegree[i]++
			}
		}

		// Inputs in the sorted order fingerprints use; the same order
		// serves input-map assembly (map fill order is irrelevant).
		names := make([]string, 0, len(s.Inputs))
		for name := range s.Inputs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b := s.Inputs[name]
			if b.IsRef() {
				cs.refs = append(cs.refs, compiledRef{name: name, ref: b.Ref})
			} else {
				cs.lits = append(cs.lits, compiledLit{name: name, val: b.Literal})
			}
		}

		// Fingerprint template. A step is not memoizable when its
		// capability is impure, a literal has no canonical form, or an
		// upstream is not memoizable — all decidable at compile time.
		// The preimage hashes the capability, the env key, then each
		// input in sorted name order: a literal's canonical encoding,
		// or a ref's upstream digest and port.
		if !capb.Pure {
			continue
		}
		pre := fpField(nil, "cap", s.Capability, "env")
		ok := true
		var segs []fpSeg
		var cur []byte
		for _, name := range names {
			b := s.Inputs[name]
			if b.IsRef() {
				upIdx := cp.index[RefStepID(b.Ref)]
				if !cp.steps[upIdx].fpOK {
					ok = false
					break
				}
				// fpField("r", name, up, port) with up always a raw
				// 32-byte sha256 digest, so its length prefix is the
				// static "32:".
				cur = fpField(cur, "r", name)
				cur = append(cur, "32:"...)
				segs = append(segs, fpSeg{static: cur, upstream: upIdx})
				cur = fpField(nil, RefPort(b.Ref))
				continue
			}
			lit, err := canonicalValue(b.Literal)
			if err != nil {
				ok = false
				break
			}
			cur = fpField(cur, "l", name, lit)
		}
		if ok {
			segs = append(segs, fpSeg{static: cur, upstream: -1})
			cs.pre, cs.segs, cs.fpOK = pre, segs, true
			cp.memoizable = true
		}
	}
	for i := 0; i < n; i++ {
		if cp.indegree[i] == 0 {
			cp.ready0 = append(cp.ready0, i)
		}
	}
	return cp, nil
}

// Workflow returns the plan's source workflow.
func (cp *CompiledPlan) Workflow() *Workflow { return cp.w }

// fingerprintsFor resolves the per-step cache keys against the
// engine's environment by substituting only the env-key suffix (and
// chained upstream digests) into the precompiled preimages, then
// memoizes the vector keyed by the engine's environment fingerprint —
// repeated warm runs hash nothing.
//
// Contract: the engine's envKeyer must be a pure function of the
// capability and of the environment state its envFP identifies (true
// of core's facet keyer, whose outputs are derived from the same
// fingerprint counters). Two engines sharing a CompiledPlan must
// observe the same environment.
func (cp *CompiledPlan) fingerprintsFor(e *Engine) []string {
	if p := cp.fp.Load(); p != nil && p.envFP == e.envFP {
		return p.fps
	}
	cp.fpMu.Lock()
	defer cp.fpMu.Unlock()
	if p := cp.fp.Load(); p != nil && p.envFP == e.envFP {
		return p.fps
	}
	fps := make([]string, len(cp.steps))
	buf := make([]byte, 0, 256)
	for i := range cp.steps {
		cs := &cp.steps[i]
		if !cs.fpOK {
			continue
		}
		envKey := e.envFP
		if e.envKeyer != nil {
			if k := e.envKeyer(cs.capb); k != "" {
				envKey = k
			}
		}
		buf = append(buf[:0], cs.pre...)
		buf = strconv.AppendInt(buf, int64(len(envKey)), 10)
		buf = append(buf, ':')
		buf = append(buf, envKey...)
		for _, seg := range cs.segs {
			buf = append(buf, seg.static...)
			if seg.upstream >= 0 {
				buf = append(buf, fps[seg.upstream]...)
			}
		}
		sum := sha256.Sum256(buf)
		fps[i] = string(sum[:])
	}
	cp.fp.Store(&compiledFPs{envFP: e.envFP, fps: fps})
	return fps
}

// stepDone is a completed step reported back to the scheduler.
type stepDone struct {
	idx  int
	capb *registry.Capability
	stat StepStat
	out  map[string]any
}

// runScratch is the pooled per-run scheduler state: the working
// indegree copy and the ready queue. Nothing in it escapes a run.
type runScratch struct {
	indegree []int
	ready    []int
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// RunCompiled executes a compiled plan. Ready steps (all Ref
// dependencies satisfied) execute concurrently, up to parallelism at
// once (values below 1 mean GOMAXPROCS). obs, when non-nil, sees every
// step start and finish. A step error stops new steps from launching,
// waits for in-flight ones, and is returned as a *StepError;
// cancellation of ctx aborts the run the same way with the context's
// error. Quality checks never abort. Step stats and provenance are
// reported in workflow order whatever order the steps completed in.
func (e *Engine) RunCompiled(ctx context.Context, cp *CompiledPlan, parallelism int, obs Observer) (*Result, error) {
	if cp == nil {
		return nil, fmt.Errorf("workflow: nil compiled plan")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	w := cp.w
	n := len(cp.steps)

	sc := runScratchPool.Get().(*runScratch)
	if cap(sc.indegree) < n {
		sc.indegree = make([]int, n)
	}
	indegree := sc.indegree[:n]
	copy(indegree, cp.indegree)
	ready := append(sc.ready[:0], cp.ready0...)
	defer func() {
		sc.ready = ready[:0]
		runScratchPool.Put(sc)
	}()

	// Provenance has one slot per step, filled by index and compacted
	// after the loop, so it lists steps in workflow order like Steps.
	res := &Result{
		Values:     make(map[string]any, cp.nValues),
		Outputs:    make(map[string]any, len(w.Outputs)),
		Steps:      make([]StepStat, 0, n),
		Provenance: make([]string, n, n+len(w.Checks)),
	}

	var fps []string
	if (e.cache != nil || e.dispatcher != nil) && cp.memoizable {
		fps = cp.fingerprintsFor(e)
	}

	// The done channel is allocated lazily: a fully cached replay
	// settles every step inline on the scheduler goroutine and never
	// needs it. The ready queue pops via a head cursor so the pooled
	// buffer keeps its capacity across runs.
	var done chan stepDone
	running := 0
	head := 0
	var firstErr error

	settle := func(d stepDone) {
		cs := &cp.steps[d.idx]
		s := cs.step
		res.Steps = append(res.Steps, d.stat)
		if d.stat.Err != nil {
			res.Provenance[d.idx] = fmt.Sprintf("step %s (%s): FAILED: %v", s.ID, s.Capability, d.stat.Err)
			if firstErr == nil {
				firstErr = &StepError{Step: s.ID, Capability: s.Capability, Err: d.stat.Err}
			}
			stepFinished(obs, d.stat)
			return
		}
		var contractErr error
		for oi, out := range cs.capb.Outputs {
			v, ok := d.out[out.Name]
			if !ok {
				contractErr = fmt.Errorf("capability %q did not produce output %q", s.Capability, out.Name)
				break
			}
			res.Values[cs.valueKeys[oi]] = v
		}
		if contractErr != nil {
			if firstErr == nil {
				firstErr = &StepError{Step: s.ID, Capability: s.Capability, Err: contractErr}
			}
			notify := d.stat
			notify.Err = contractErr
			stepFinished(obs, notify)
			return
		}
		if d.stat.Cached {
			res.Provenance[d.idx] = cs.cachedProv
		} else {
			if e.cache != nil && fps != nil && fps[d.idx] != "" {
				e.cache.Put(fps[d.idx], d.out)
			}
			res.Provenance[d.idx] = fmt.Sprintf("step %s (%s): ok in %v", s.ID, s.Capability, d.stat.Duration.Round(time.Microsecond))
		}
		stepFinished(obs, d.stat)
		for _, j := range cp.dependents[d.idx] {
			indegree[j]--
			if indegree[j] == 0 {
				ready = append(ready, j)
			}
		}
	}

	launch := func(i int) {
		cs := &cp.steps[i]
		s := cs.step
		capb := cs.capb
		if obs != nil {
			obs.StepStarted(s.ID, s.Capability)
		}
		if e.cache != nil && fps != nil && fps[i] != "" {
			if out, ok := e.cache.Get(fps[i]); ok {
				settle(stepDone{
					idx:  i,
					capb: capb,
					stat: StepStat{ID: s.ID, Capability: s.Capability, Cached: true, Fingerprint: fps[i]},
					out:  out,
				})
				return
			}
		}
		in := make(map[string]any, len(cs.refs)+len(cs.lits))
		for _, r := range cs.refs {
			in[r.name] = res.Values[r.ref]
		}
		for _, l := range cs.lits {
			in[l.name] = l.val
		}
		running++
		if done == nil {
			done = make(chan stepDone)
		}
		fp := ""
		if fps != nil {
			fp = fps[i]
		}
		go func() {
			start := time.Now()
			// Dispatchable step: offer it to the fleet; a decline falls
			// back to local execution in the same worker goroutine.
			if e.dispatcher != nil && cs.dispatchable {
				if out, handled, err := e.safeDispatch(ctx, capb, in, fp); handled {
					done <- stepDone{
						idx:  i,
						capb: capb,
						stat: StepStat{ID: s.ID, Capability: s.Capability, Duration: time.Since(start), Err: err, Remote: true, Fingerprint: fp},
						out:  out,
					}
					return
				}
			}
			call := &registry.Call{In: in, Out: map[string]any{}, Env: e.env, Ctx: ctx}
			err := e.safeCall(capb, call)
			done <- stepDone{
				idx:  i,
				capb: capb,
				stat: StepStat{ID: s.ID, Capability: s.Capability, Duration: time.Since(start), Err: err, Fingerprint: fp},
				out:  call.Out,
			}
		}()
	}

	for {
		for firstErr == nil && ctx.Err() == nil && len(ready) > head && running < parallelism {
			next := ready[head]
			head++
			launch(next)
		}
		if running == 0 {
			break
		}
		d := <-done
		running--
		settle(d)
	}

	// slices.SortFunc rather than sort.Slice: same deterministic order
	// (indexes are unique), no reflect.Swapper allocation per run.
	slices.SortFunc(res.Steps, func(a, b StepStat) int { return cp.index[a.ID] - cp.index[b.ID] })
	res.Provenance = slices.DeleteFunc(res.Provenance, func(line string) bool { return line == "" })

	if firstErr != nil {
		return res, firstErr
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("workflow %q: %w", w.Name, err)
	}
	for name, ref := range w.Outputs {
		res.Outputs[name] = res.Values[ref]
	}
	for _, chk := range w.Checks {
		ok, note := chk.Assert(res.Values[chk.Ref])
		res.Checks = append(res.Checks, CheckResult{Name: chk.Name, Kind: chk.Kind, Passed: ok, Note: note})
		status := "pass"
		if !ok {
			status = "FAIL"
		}
		// Plain concatenation: one allocation, no Sprintf boxing.
		res.Provenance = append(res.Provenance,
			"check "+chk.Name+" ["+string(chk.Kind)+"]: "+status+" "+note)
	}
	return res, nil
}
