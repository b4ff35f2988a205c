package registrycurator

import (
	"strings"

	"arachnet/internal/workflow"
)

// Window is the curator's incremental view of a sliding observation
// window. Push appends the newest observation and Drop retires the
// oldest; each costs O(chains of the observations involved), never
// O(window). Per pattern key the window keeps its in-window
// occurrences oldest first — the first is the representative chain a
// promotion lifts — and its distinct-workflow support, so a promotion
// pass reads the same evidence batch Curate would mine from the same
// observations.
//
// The window also tracks whether a pass could decide anything the
// last completed one did not (see Pending), which lets a serving
// process skip curation on the many asks that change nothing.
//
// A Window is not safe for concurrent use: callers serialize Push,
// Drop, Pending and Done.
type Window struct {
	minSupport int
	minQuality float64
	maxChain   int

	// obs holds one entry per in-window observation, oldest first, from
	// index head on; nil marks an unsuccessful observation.
	obs  []*plan
	head int

	plans    map[*workflow.Workflow]*plan
	patterns map[string]*pattern

	touched []*pattern // Drop scratch

	// version counts changes to a pass's inputs; it starts at 1 so a
	// new window has a pass due. curated and gen are the version and
	// registry generation the last completed pass saw.
	version uint64
	curated uint64
	gen     uint64
}

// plan memoizes the mining of one workflow. Plan-cache hits replay the
// same *workflow.Workflow, so a serving process mines each distinct
// plan once however often it runs.
type plan struct {
	wf     *workflow.Workflow
	refs   int    // in-window observations of wf
	fp     string // fingerprint: distinct plans sharing one count once
	chains []chain
}

// chain is one liftable step window of a plan and its pattern.
type chain struct {
	steps []workflow.Step
	pat   *pattern
}

// occurrence is one in-window appearance of a pattern.
type occurrence struct {
	c       *chain
	quality float64
}

// pattern is the window's evidence for one capability chain.
type pattern struct {
	key   string
	name  string // composite name the pattern would be promoted under
	links int    // capabilities in the chain

	occ     []occurrence // occ[head:] in window, oldest first
	head    int
	support map[string]int // workflow fingerprint → occurrences in window
	// sum adds the in-window qualities oldest first, the same
	// floating-point order batch Curate sums them in.
	sum float64

	// eligible and rep are the state a pass last could have seen:
	// whether the pattern clears both thresholds, and its
	// representative chain.
	eligible bool
	rep      *chain
	stale    bool // queued in Window.touched
}

// candidate is one eligible pattern as a promotion pass sees it.
type candidate struct {
	key        string
	name       string
	links      int
	meaningful bool
	chain      []workflow.Step
	support    int
	quality    float64
}

// Pass is a snapshot of a window's eligible patterns: everything one
// promotion pass decides on. Window.Pending fills it, Agent.Promote
// runs it, and Window.Done records it as curated. A Pass may be
// reused; Pending overwrites it.
type Pass struct {
	cands   []candidate
	version uint64
	gen     uint64
}

// NewWindow returns an empty window mining with a's thresholds (unset
// thresholds take their defaults first).
func (a *Agent) NewWindow() *Window {
	a.normalize()
	return &Window{
		minSupport: a.MinSupport,
		minQuality: a.MinQuality,
		maxChain:   a.MaxChain,
		plans:      map[*workflow.Workflow]*plan{},
		patterns:   map[string]*pattern{},
		version:    1,
	}
}

// Len returns the number of observations in the window.
func (w *Window) Len() int { return len(w.obs) - w.head }

// Push appends obs as the newest observation. Unsuccessful
// observations occupy a slot but carry no evidence.
func (w *Window) Push(obs Observation) {
	if !obs.Succeeded() {
		w.obs = append(w.obs, nil)
		return
	}
	p := w.planFor(obs.Workflow)
	p.refs++
	w.obs = append(w.obs, p)
	q := obs.Result.QualityScore()
	for i := range p.chains {
		pt := p.chains[i].pat
		pt.occ = append(pt.occ, occurrence{c: &p.chains[i], quality: q})
		pt.support[p.fp]++
		pt.sum += q
	}
	for i := range p.chains {
		w.settle(p.chains[i].pat)
	}
}

// Drop retires the n oldest observations (all of them when n exceeds
// Len).
func (w *Window) Drop(n int) {
	n = min(n, w.Len())
	if n <= 0 {
		return
	}
	gone := w.obs[w.head : w.head+n]
	for _, p := range gone {
		if p == nil {
			continue
		}
		for i := range p.chains {
			pt := p.chains[i].pat
			pt.occ[pt.head] = occurrence{}
			pt.head++
			if pt.support[p.fp]--; pt.support[p.fp] == 0 {
				delete(pt.support, p.fp)
			}
			if !pt.stale {
				pt.stale = true
				w.touched = append(w.touched, pt)
			}
		}
		if p.refs--; p.refs == 0 {
			delete(w.plans, p.wf)
		}
	}
	clear(gone)
	w.head += n
	w.obs = compact(w.obs, &w.head)

	for _, pt := range w.touched {
		pt.stale = false
		pt.occ = compact(pt.occ, &pt.head)
		if len(pt.occ) == 0 {
			delete(w.patterns, pt.key)
			if pt.eligible {
				w.version++
			}
			continue
		}
		// Retiring the oldest terms changes the ordered sum's rounding,
		// so it is recomputed rather than decremented.
		pt.sum = 0
		for _, o := range pt.occ[pt.head:] {
			pt.sum += o.quality
		}
		w.settle(pt)
	}
	clear(w.touched)
	w.touched = w.touched[:0]
}

// compact slides the live tail s[*head:] to the front once the dead
// prefix is at least half the slice, keeping the backing array.
func compact[T any](s []T, head *int) []T {
	if *head == 0 || 2*(*head) < len(s) {
		return s
	}
	n := copy(s, s[*head:])
	clear(s[n:])
	*head = 0
	return s[:n]
}

// planFor returns wf's memoized mining, mining it on first sight.
func (w *Window) planFor(wf *workflow.Workflow) *plan {
	if p := w.plans[wf]; p != nil {
		return p
	}
	wins := liftableChains(wf, w.maxChain)
	p := &plan{wf: wf, fp: fingerprint(wf), chains: make([]chain, len(wins))}
	for i, win := range wins {
		key := chainKey(win)
		pt := w.patterns[key]
		if pt == nil {
			pt = &pattern{
				key:     key,
				name:    compositeName(win),
				links:   strings.Count(key, "|") + 1,
				support: map[string]int{},
			}
			w.patterns[key] = pt
		}
		p.chains[i] = chain{steps: win, pat: pt}
	}
	w.plans[wf] = p
	return p
}

// settle re-evaluates pt's eligibility and representative. A pass
// decides on exactly these (the representative carries the meaningful
// flag, the head ports a composite is checked against, and the chain
// a promotion lifts), so a change to either on an eligible pattern
// makes a pass due.
func (w *Window) settle(pt *pattern) {
	live := pt.occ[pt.head:]
	eligible := len(pt.support) >= w.minSupport && pt.sum/float64(len(live)) >= w.minQuality
	rep := live[0].c
	if eligible != pt.eligible || eligible && rep != pt.rep {
		w.version++
	}
	pt.eligible, pt.rep = eligible, rep
}

// Pending reports whether a promotion pass over a registry at
// generation gen is due, and if so snapshots the eligible patterns
// into p. A pass is not due when the eligible set, every eligible
// pattern's representative and the registry generation are all as the
// last completed pass saw them: that pass made every decision the new
// one would make, and promoting nothing left the registry as it found
// it (a promotion bumps the generation, so the pass after it always
// runs).
func (w *Window) Pending(gen uint64, p *Pass) bool {
	if w.curated == w.version && w.gen == gen {
		return false
	}
	w.snapshot(p)
	p.gen = gen
	return true
}

// Done records p, taken by Pending, as a completed pass. A pass that
// failed must not be recorded, so the next call runs it again.
func (w *Window) Done(p *Pass) {
	w.curated, w.gen = p.version, p.gen
}

// snapshot copies the eligible patterns into p.
func (w *Window) snapshot(p *Pass) {
	p.version = w.version
	clear(p.cands)
	p.cands = p.cands[:0]
	for _, pt := range w.patterns {
		if !pt.eligible {
			continue
		}
		steps := pt.rep.steps
		phase := steps[len(steps)-1].Phase
		p.cands = append(p.cands, candidate{
			key:        pt.key,
			name:       pt.name,
			links:      pt.links,
			meaningful: phase != "" && phase != "auto",
			chain:      steps,
			support:    len(pt.support),
			quality:    pt.sum / float64(len(pt.occ)-pt.head),
		})
	}
}
