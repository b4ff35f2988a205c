// Package registrycurator implements ArachNet's fourth agent:
// systematic registry evolution. It mines executed workflows for
// recurring capability chains, validates them (validation-first: only
// patterns that recur across successful, high-quality runs are
// promoted — speculative additions would bloat the registry), and
// promotes survivors as composite capabilities that future designs can
// reuse as single steps.
package registrycurator

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// Observation is one executed workflow with its outcome.
type Observation struct {
	Workflow *workflow.Workflow
	Result   *workflow.Result
	Err      error
}

// Succeeded reports whether the observation is usable evidence.
func (o Observation) Succeeded() bool {
	return o.Err == nil && o.Workflow != nil && o.Result != nil
}

// Promotion is one pattern promoted into the registry.
type Promotion struct {
	Capability registry.Capability
	// Pattern is the capability chain the composite encapsulates.
	Pattern []string
	// Support is the number of successful workflows exhibiting it.
	Support int
	// AvgQuality is the mean quality score across those workflows.
	AvgQuality float64
}

// Agent is the RegistryCurator agent.
type Agent struct {
	// MinSupport is the minimum number of distinct successful
	// workflows a pattern must appear in (default 2).
	MinSupport int
	// MinQuality is the minimum average quality score (default 0.8).
	MinQuality float64
	// MaxChain bounds the pattern length (default 4, minimum 2).
	MaxChain int
}

// New returns a curator with default validation thresholds.
func New() *Agent { return &Agent{MinSupport: 2, MinQuality: 0.8, MaxChain: 4} }

// normalize applies the default thresholds to unset or invalid fields.
func (a *Agent) normalize() {
	if a.MinSupport < 2 {
		a.MinSupport = 2
	}
	if a.MinQuality <= 0 {
		a.MinQuality = 0.8
	}
	if a.MaxChain < 2 {
		a.MaxChain = 4
	}
}

// Curate mines the history and registers validated composites into
// reg. It returns the promotions performed. Already-promoted patterns
// (by composite name) are skipped, so curation is idempotent. Curate
// is the batch form of a Window: it pushes the whole history into a
// fresh window and runs one promotion pass over it.
func (a *Agent) Curate(history []Observation, reg *registry.Registry) ([]Promotion, error) {
	w := a.NewWindow()
	for _, obs := range history {
		w.Push(obs)
	}
	var p Pass
	w.snapshot(&p)
	return a.promote(p.cands, reg)
}

// Promote runs the promotion pass over a snapshot taken by
// Window.Pending, registering validated composites into reg.
func (a *Agent) Promote(p *Pass, reg *registry.Registry) ([]Promotion, error) {
	return a.promote(p.cands, reg)
}

// promote validates and promotes candidates. Patterns that end at a
// sub-problem artifact (the step's Phase names a real sub-problem, not
// auto-chained glue) are semantically complete capabilities and win
// first; then longer patterns beat shorter ones.
func (a *Agent) promote(cands []candidate, reg *registry.Registry) ([]Promotion, error) {
	slices.SortFunc(cands, func(x, y candidate) int {
		if x.meaningful != y.meaningful {
			if x.meaningful {
				return -1
			}
			return 1
		}
		if x.links != y.links {
			return y.links - x.links
		}
		return strings.Compare(x.key, y.key)
	})

	var promotions []Promotion
	covered := map[string]bool{} // capability names already inside a promoted pattern
	for _, c := range cands {
		// Skip patterns overlapping an already-promoted, longer one.
		overlap := false
		for _, s := range c.chain {
			if covered[s.Capability] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		if liftableOver(c.chain, reg) != nil {
			continue // not liftable after all (e.g. capability vanished)
		}
		// A pattern promoted in an earlier pass keeps its chain covered
		// so sub-patterns don't sneak in behind it; only a new one pays
		// for building its composite.
		if !reg.Has(c.name) {
			capb, err := a.composite(c.chain, reg)
			if err != nil {
				continue
			}
			if err := reg.Register(capb); err != nil {
				return promotions, fmt.Errorf("registrycurator: promote %q: %w", capb.Name, err)
			}
			promotions = append(promotions, Promotion{
				Capability: capb,
				Pattern:    capNames(c.chain),
				Support:    c.support,
				AvgQuality: c.quality,
			})
		}
		for _, s := range c.chain {
			covered[s.Capability] = true
		}
	}
	return promotions, nil
}

// liftableChains enumerates contiguous step windows (length 2..MaxChain)
// whose internal dataflow is self-contained: every input of steps after
// the first is either a literal or a reference into the window.
func liftableChains(wf *workflow.Workflow, maxChain int) [][]workflow.Step {
	var out [][]workflow.Step
	n := len(wf.Steps)
	for start := 0; start < n; start++ {
		for ln := 2; ln <= maxChain && start+ln <= n; ln++ {
			win := wf.Steps[start : start+ln]
			if chainIsLiftable(win) {
				out = append(out, win)
			}
		}
	}
	return out
}

func chainIsLiftable(win []workflow.Step) bool {
	inside := map[string]bool{}
	for _, s := range win {
		inside[s.ID] = true
	}
	for i, s := range win {
		for _, b := range s.Inputs {
			if !b.IsRef() {
				continue
			}
			src := refStep(b.Ref)
			if i == 0 {
				// The head's references become the composite's inputs;
				// they must come from outside (otherwise the window is
				// mis-rooted).
				if inside[src] {
					return false
				}
				continue
			}
			if !inside[src] {
				return false
			}
		}
	}
	return true
}

func refStep(ref string) string {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[:i]
	}
	return ref
}

func capNames(win []workflow.Step) []string {
	out := make([]string, len(win))
	for i, s := range win {
		out[i] = s.Capability
	}
	return out
}

func chainKey(win []workflow.Step) string {
	return strings.Join(capNames(win), "|")
}

func fingerprint(wf *workflow.Workflow) string {
	// Distinct queries over the same capability chain are distinct use
	// cases — the evidence the validation-first policy wants.
	return wf.Name + ":" + wf.Query + ":" + strings.Join(wf.CapabilityNames(), "|")
}

// liftableOver reports why chain cannot be lifted into a composite
// over reg: a capability it names is missing, or the head step binds
// an input its capability does not declare. It is every way composite
// can fail, checked without building anything, so a promotion pass can
// skip already-promoted patterns cheaply.
func liftableOver(chain []workflow.Step, reg *registry.Registry) error {
	head := chain[0]
	headCap, err := reg.Get(head.Capability)
	if err != nil {
		return err
	}
	for name := range head.Inputs {
		if _, ok := headCap.InputPort(name); !ok {
			return fmt.Errorf("head port %q missing", name)
		}
	}
	for _, s := range chain[1:] {
		if _, err := reg.Get(s.Capability); err != nil {
			return err
		}
	}
	return nil
}

// composite lifts a step chain into a single registered capability. The
// composite's inputs are the head step's external bindings (reference
// bindings become required inputs; literals are frozen as defaults that
// callers may override); its outputs are the tail step's outputs. The
// implementation replays the chain through a private engine.
func (a *Agent) composite(chain []workflow.Step, reg *registry.Registry) (registry.Capability, error) {
	if err := liftableOver(chain, reg); err != nil {
		return registry.Capability{}, err
	}
	head := chain[0]
	tail := chain[len(chain)-1]
	headCap, err := reg.Get(head.Capability)
	if err != nil {
		return registry.Capability{}, err
	}
	tailCap, err := reg.Get(tail.Capability)
	if err != nil {
		return registry.Capability{}, err
	}

	var inputs []registry.Port
	frozen := map[string]any{}
	for name, b := range head.Inputs {
		port, _ := headCap.InputPort(name)
		if b.IsRef() {
			inputs = append(inputs, port)
		} else {
			frozen[name] = b.Literal
			opt := port
			opt.Optional = true
			opt.Desc = strings.TrimSpace(opt.Desc + " (default from observed runs)")
			inputs = append(inputs, opt)
		}
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].Name < inputs[j].Name })

	outputs := make([]registry.Port, len(tailCap.Outputs))
	copy(outputs, tailCap.Outputs)

	// Merge tags; mark composite. A composite is Pure — memoizable —
	// exactly when every capability it replays is Pure.
	tagSet := map[string]bool{}
	var frameworks []string
	fwSeen := map[string]bool{}
	pure := true
	// Union the chain's declared environment facets; one member with an
	// unknown (empty) Reads makes the composite's unknown too, so its
	// cache keys conservatively track the full environment fingerprint.
	readsKnown := true
	readSet := map[string]bool{}
	for _, s := range chain {
		c, err := reg.Get(s.Capability)
		if err != nil {
			return registry.Capability{}, err
		}
		pure = pure && c.Pure
		if len(c.Reads) == 0 {
			readsKnown = false
		}
		for _, r := range c.Reads {
			readSet[r] = true
		}
		for _, t := range c.Tags {
			tagSet[t] = true
		}
		if !fwSeen[c.Framework] {
			fwSeen[c.Framework] = true
			frameworks = append(frameworks, c.Framework)
		}
	}
	tags := make([]string, 0, len(tagSet)+1)
	for t := range tagSet {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	tags = append(tags, "composite")
	var reads []string
	if readsKnown {
		for r := range readSet {
			reads = append(reads, r)
		}
		sort.Strings(reads)
	}

	cost := 0
	for _, s := range chain {
		c, _ := reg.Get(s.Capability)
		cost += c.Cost
	}
	if cost > 1 {
		cost-- // the promoted pattern amortizes integration overhead
	}

	name := compositeName(chain)
	verbs := make([]string, len(chain))
	for i, s := range chain {
		verbs[i] = s.Capability
	}
	desc := fmt.Sprintf("Validated pattern: %s (promoted from %d-step chain observed in successful workflows)",
		strings.Join(verbs, " → "), len(chain))

	// Snapshot the chain with stable IDs for replay.
	replay := make([]workflow.Step, len(chain))
	idMap := map[string]string{}
	for i, s := range chain {
		idMap[s.ID] = fmt.Sprintf("c%d", i+1)
	}
	for i, s := range chain {
		ns := workflow.Step{ID: idMap[s.ID], Capability: s.Capability, Inputs: map[string]workflow.Binding{}}
		for nameIn, b := range s.Inputs {
			if b.IsRef() {
				src := refStep(b.Ref)
				if mapped, ok := idMap[src]; ok {
					ns.Inputs[nameIn] = workflow.Binding{Ref: mapped + b.Ref[strings.IndexByte(b.Ref, '.'):]}
				} else if i == 0 {
					// External reference → will be bound from the call.
					ns.Inputs[nameIn] = workflow.Binding{Ref: "extern." + nameIn}
				} else {
					return registry.Capability{}, fmt.Errorf("non-head external ref %q", b.Ref)
				}
			} else {
				ns.Inputs[nameIn] = b
			}
		}
		replay[i] = ns
	}

	impl := func(call *registry.Call) error {
		// Rebuild the chain with the call's inputs spliced into the
		// head step, then execute through a private engine.
		steps := make([]workflow.Step, len(replay))
		for i, s := range replay {
			ns := workflow.Step{ID: s.ID, Capability: s.Capability, Inputs: map[string]workflow.Binding{}}
			for nameIn, b := range s.Inputs {
				if b.IsRef() && strings.HasPrefix(b.Ref, "extern.") {
					v, ok := call.In[nameIn]
					if !ok {
						return fmt.Errorf("composite %s: input %q not bound", name, nameIn)
					}
					ns.Inputs[nameIn] = workflow.Lit(v)
					continue
				}
				if !b.IsRef() {
					// Frozen literal; the caller may override.
					if v, ok := call.In[nameIn]; ok && i == 0 {
						ns.Inputs[nameIn] = workflow.Lit(v)
						continue
					}
				}
				ns.Inputs[nameIn] = b
			}
			steps[i] = ns
		}
		inner := &workflow.Workflow{Name: "composite:" + name, Steps: steps}
		res, err := workflow.NewEngine(reg, call.Env).Run(call.Context(), inner)
		if err != nil {
			return fmt.Errorf("composite %s: %w", name, err)
		}
		lastID := steps[len(steps)-1].ID
		for _, out := range outputs {
			call.Out[out.Name] = res.Values[lastID+"."+out.Name]
		}
		return nil
	}
	_ = frozen

	return registry.Capability{
		Name:        name,
		Framework:   "composite",
		Description: desc,
		Inputs:      inputs,
		Outputs:     outputs,
		Constraints: []string{fmt.Sprintf("spans frameworks: %s", strings.Join(frameworks, ", "))},
		Tags:        tags,
		Cost:        cost,
		Composite:   true,
		Pure:        pure,
		Reads:       reads,
		Impl:        impl,
	}, nil
}

// compositeName derives a stable, readable name from the chain's head
// and tail verbs.
func compositeName(chain []workflow.Step) string {
	headVerb := verbOf(chain[0].Capability)
	tailVerb := verbOf(chain[len(chain)-1].Capability)
	return fmt.Sprintf("composite.%s_to_%s_%d", headVerb, tailVerb, len(chain))
}

func verbOf(capName string) string {
	if i := strings.IndexByte(capName, '.'); i >= 0 {
		return capName[i+1:]
	}
	return capName
}
