package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/bgp"
	"arachnet/internal/core"
	"arachnet/internal/geo"
	"arachnet/internal/netsim"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/traceroute"
	"arachnet/internal/workflow"
)

// Headers that carry a request's ids from the client to the tracing
// wrapper, which removes them before the server sees the request.
const (
	reqHeader  = "X-Perfbench-Request"
	spanHeader = "X-Perfbench-Span"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory; they are written out
// when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span

	jobsMu   sync.Mutex
	jobsOver []float64 // µs, twin Submit+Wait minus Report.Elapsed
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(id, parent, req uint64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// timed records f as a span and returns f's error.
func (t *tracer) timed(parent, req uint64, name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.newID()
	start := time.Now()
	err := f()
	t.add(id, parent, req, name, start, time.Now())
	return err
}

// wrap times Server.ServeHTTP for asks and injections.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		r.Header.Del(spanHeader)
		r.Header.Del(reqHeader)
		name := ""
		switch r.URL.Path {
		case "/v1/ask":
			name = "serve.handler"
		case "/v1/admin/scenario":
			name = "serve.admin"
		}
		if name == "" || parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(id, parent, req, name, start, time.Now())
	})
}

// curateEvery samples the curation shadow call: one request in four
// pays for a full Curate pass, which costs as much as the ask itself.
const curateEvery = 4

// shadowAsk calls each layer the server just ran for q, from the
// benchmark, on state that does not feed back into the server: the
// planning agents and Compile read the tenant's registry, Submit+Wait
// runs on the twin System, and Curate runs over a copy of the history
// against a registry clone.
func (t *tracer) shadowAsk(p *pass, b *bench, req uint64, q query) {
	if _, err := planQuery(t, req, b.env, b.sys.Registry(), q.Text); err != nil {
		p.recordShadowErr(err)
	}

	start := time.Now()
	j, err := b.twin.Submit(context.Background(), q.Text, core.AskWithoutCuration())
	var rep *core.Report
	if err == nil {
		rep, err = j.Wait(context.Background())
	}
	end := time.Now()
	if err != nil {
		p.recordShadowErr(fmt.Errorf("twin ask: %w", err))
	} else {
		t.add(t.newID(), 0, req, "jobs.submit_wait", start, end)
		t.jobsMu.Lock()
		t.jobsOver = append(t.jobsOver, float64(end.Sub(start)-rep.Elapsed)/1e3)
		t.jobsMu.Unlock()
	}

	if req%curateEvery == 0 {
		hist, reg := b.sys.History(), b.sys.Registry().Clone()
		err := t.timed(0, req, "registrycurator.curate", func() error {
			_, err := registrycurator.New().Curate(hist, reg)
			return err
		})
		if err != nil {
			p.recordShadowErr(err)
		}
	}
}

// planQuery runs the planning half of the pipeline the way System.plan
// does on a plan-cache miss: nlq.Parse and QueryMind, WorkflowScout,
// SolutionWeaver, then workflow.Compile. With a nil tracer it only
// plans.
func planQuery(t *tracer, req uint64, env *core.Environment, reg *registry.Registry, text string) (*workflow.CompiledPlan, error) {
	var (
		root     uint64
		problem  *querymind.ProblemSpec
		design   *workflowscout.Design
		solution *solutionweaver.Solution
		compiled *workflow.CompiledPlan
	)
	if t != nil {
		root = t.newID()
		defer func(start time.Time) { t.add(root, 0, req, "plan", start, time.Now()) }(time.Now())
	}
	err := t.timed(root, req, "querymind", func() error {
		spec := nlq.Parse(text, env.Catalog)
		data := env.Data()
		var err error
		problem, err = querymind.New().Analyze(spec, querymind.DataAvailability{
			HasCrossLayerMap: data.HasCrossLayerMap,
			MapCoverage:      data.MapCoverage,
			HasTraceArchive:  data.HasTraceArchive,
			HasBGPStream:     data.HasBGPStream,
			WindowDays:       data.WindowDays,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := t.timed(root, req, "workflowscout", func() (err error) {
		design, err = workflowscout.New().Design(problem, reg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := t.timed(root, req, "solutionweaver", func() (err error) {
		solution, err = solutionweaver.New().Weave(design.Chosen, reg)
		return err
	}); err != nil {
		return nil, err
	}
	err = t.timed(root, req, "workflow.compile", func() (err error) {
		compiled, err = workflow.Compile(solution.Workflow, reg)
		return err
	})
	return compiled, err
}

// shadowInjection times the substrates the injection with the given
// scenario seed just ran: one bgp.ComputeTable with the failed links
// down, and a traceroute.RunCampaign replaying the injected campaign
// (its probes, window, failure event and seed). The replayed archive
// must equal the injected one, which checks that the replay is the
// campaign the program ran.
func (t *tracer) shadowInjection(p *pass, b *bench, req, seed uint64) {
	sc := b.env.Scenario
	failed := map[netsim.LinkID]bool{}
	for _, id := range sc.FailedLink {
		failed[id] = true
	}
	t.timed(0, req, "bgp.table", func() error {
		bgp.ComputeTable(b.env.World, failed)
		return nil
	})
	probes, err := injectedProbes(b.env.World, sc.Archive)
	if err != nil {
		p.recordShadowErr(err)
		return
	}
	camp := traceroute.Campaign{
		Probes:   probes,
		Start:    sc.Start,
		End:      sc.End,
		Interval: time.Hour,
		Events:   []bgp.FailureEvent{{At: sc.FailureAt, Links: sc.FailedLink, Label: "cable:" + string(sc.TrueCable)}},
		Seed:     seed ^ campaignSeedMix,
	}
	var arch *traceroute.Archive
	err = t.timed(0, req, "traceroute.campaign", func() (err error) {
		arch, err = traceroute.RunCampaign(b.env.World, camp)
		return err
	})
	if err == nil && !reflect.DeepEqual(arch.Measurements, sc.Archive.Measurements) {
		err = errors.New("replayed traceroute campaign differs from the injected one")
	}
	if err != nil {
		p.recordShadowErr(err)
	}
}

// How Environment.InjectCableFailureScenario derives its campaign: the
// campaign seed is the scenario seed xor campaignSeedMix, and probes
// pair the first probeGridSide European with the first probeGridSide
// Asian stub routers, in router-id order, named
// "<src country>-<dst country>-<src index*len(dsts)+dst index>".
const (
	campaignSeedMix = 0x5bd1e995
	probeGridSide   = 14
)

// injectedProbes rebuilds the probes of an injected campaign, in the
// campaign's order, from the probe names in its archive: each tick
// measures every probe in that order.
func injectedProbes(w *netsim.World, arch *traceroute.Archive) ([]traceroute.Probe, error) {
	var srcs, dsts []netsim.Router
	for _, a := range w.ASes {
		if a.Tier != netsim.Stub {
			continue
		}
		r, ok := w.RouterIn(a.ASN, a.Home)
		if !ok {
			continue
		}
		switch reg, _ := geo.RegionOf(a.Home); reg {
		case geo.Europe:
			srcs = append(srcs, r)
		case geo.Asia:
			dsts = append(dsts, r)
		}
	}
	byID := func(a, b netsim.Router) int { return int(a.ID) - int(b.ID) }
	slices.SortFunc(srcs, byID)
	slices.SortFunc(dsts, byID)
	srcs, dsts = srcs[:min(len(srcs), probeGridSide)], dsts[:min(len(dsts), probeGridSide)]
	var out []traceroute.Probe
	seen := map[string]bool{}
	for _, m := range arch.Measurements {
		name := m.Probe
		if seen[name] {
			continue
		}
		seen[name] = true
		k, err := strconv.Atoi(name[strings.LastIndexByte(name, '-')+1:])
		if err != nil || len(dsts) == 0 || k < 0 || k/len(dsts) >= len(srcs) {
			return nil, fmt.Errorf("injected probe %q names no stub pair", name)
		}
		s, d := srcs[k/len(dsts)], dsts[k%len(dsts)]
		if want := fmt.Sprintf("%s-%s-%d", s.Country, d.Country, k); name != want {
			return nil, fmt.Errorf("injected probe %q rebuilt as %q", name, want)
		}
		out = append(out, traceroute.Probe{Name: name, Src: s.ID, Dst: d.Addr})
	}
	return out, nil
}

func (p *pass) recordShadowErr(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstErr == nil {
		p.firstErr = fmt.Errorf("traced layer call: %w", err)
	}
	p.failed++
}

// selfTimes returns, per span name, the mean self time in µs: a
// span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum, n := map[string]int64{}, map[string]int{}
	for _, s := range t.spans {
		sum[s.Name] += s.End - s.Start - covered(s, children[s.ID])
		n[s.Name]++
	}
	out := make(map[string]float64, len(sum))
	for name, ns := range sum {
		out[name] = float64(ns) / float64(n[name]) / 1e3
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
	var total, cur int64 = 0, parent.Start
	for _, k := range kids {
		s, e := max(k.Start, cur), min(k.End, parent.End)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// handlerDurations maps request ids to their serve.handler span length.
func (t *tracer) handlerDurations() map[uint64]int64 {
	out := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Name == "serve.handler" {
			out[s.Req] = s.End - s.Start
		}
	}
	return out
}

// write dumps the spans as JSON lines into dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
