package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"arachnet/internal/core"
	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/nlq"
)

// query is one generated /v1/ask request: the text the server receives
// and the intent it was generated for, which the output gate checks.
type query struct {
	Text   string
	Intent nlq.Intent
}

// The four case-study queries of the source paper, one per intent.
var caseStudies = []query{
	{"Identify the impact at a country level due to SeaMeWe-5 cable failure", nlq.IntentCableImpact},
	{"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability", nlq.IntentDisasterImpact},
	{"Analyze the cascading effects of submarine cable failures between Europe and Asia", nlq.IntentCascade},
	{"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.", nlq.IntentForensic},
}

// forensicQuery is the CS4 text, the standing query of every set-up.
var forensicQuery = caseStudies[3].Text

// outputKey is the workflow output every successful answer of an
// intent must carry.
func outputKey(in nlq.Intent) string {
	switch in {
	case nlq.IntentCableImpact:
		return "aggregation"
	case nlq.IntentDisasterImpact:
		return "combination"
	case nlq.IntentCascade:
		return "synthesis"
	case nlq.IntentForensic:
		return "verdict"
	}
	return ""
}

// Spellings the query parser understands; regions are named by their
// canonical geo names, so two distinct picks never alias one region.
var (
	dayWords  = []string{"one", "two", "three", "four", "five", "six"}
	disasters = []string{"earthquakes", "hurricanes", "earthquakes and hurricanes"}
)

// generator draws queries from the world catalog. Its pools are fixed
// by the world; every draw comes from rng, so one seed gives one
// stream.
type generator struct {
	rng    *rand.Rand
	cables []string // short names of cables that carry links
	n      int      // queries drawn by next
}

func newGenerator(env *core.Environment, seed uint64) *generator {
	return &generator{rng: rand.New(rand.NewPCG(seed, 0x6172616368)), cables: cablePool(env)}
}

// cablePool lists the catalog cables that carry IP links in env's
// world and that the parser resolves from their short name alone.
func cablePool(env *core.Environment) []string {
	var out []string
	for _, c := range env.Catalog.Cables() {
		if len(env.CrossMap.LinksOn(c.ID)) == 0 {
			continue
		}
		name := shortName(c)
		spec := nlq.Parse(cableImpactText(name), env.Catalog)
		if len(spec.Cables) == 1 && spec.Cables[0] == c.ID {
			out = append(out, name)
		}
	}
	return out
}

// shortName drops a parenthetical, e.g. "AAE-1 (Asia-Africa-Europe 1)".
func shortName(c nautilus.Cable) string {
	if i := strings.IndexByte(c.Name, '('); i > 0 {
		return strings.TrimSpace(c.Name[:i])
	}
	return c.Name
}

func cableImpactText(names ...string) string {
	if len(names) == 1 {
		return fmt.Sprintf("Identify the impact at a country level due to %s cable failure", names[0])
	}
	return fmt.Sprintf("Identify the impact at a country level due to %s and %s cable failures", names[0], names[1])
}

// next draws one query. The intents take turns, and so do the
// variants within an intent, so every seed's stream has the same mix
// of work and the seed picks only the parameters.
func (g *generator) next() query {
	g.n++
	switch g.n % 4 {
	case 1:
		return g.cableImpact()
	case 2:
		return g.disaster()
	case 3:
		return g.cascade()
	default:
		return g.forensic()
	}
}

// cableImpact names one cable or a pair of distinct cables, in turn.
func (g *generator) cableImpact() query {
	a := g.rng.IntN(len(g.cables))
	if g.n/4%2 == 0 {
		return query{cableImpactText(g.cables[a]), nlq.IntentCableImpact}
	}
	b := (a + 1 + g.rng.IntN(len(g.cables)-1)) % len(g.cables)
	return query{cableImpactText(g.cables[a], g.cables[b]), nlq.IntentCableImpact}
}

// disaster draws a failure probability with one decimal, 1.0%-30.0%.
func (g *generator) disaster() query {
	p := 10 + g.rng.IntN(291)
	return query{fmt.Sprintf("Identify the impact of severe %s globally assuming a %d.%d%% infra failure probability",
		disasters[g.n/4%len(disasters)], p/10, p%10), nlq.IntentDisasterImpact}
}

// cascade names a corridor of two distinct regions: QueryMind refuses
// a corridor that names one region twice.
func (g *generator) cascade() query {
	regions := geo.AllRegions()
	a := g.rng.IntN(len(regions))
	b := (a + 1 + g.rng.IntN(len(regions)-1)) % len(regions)
	return query{fmt.Sprintf("Analyze the cascading effects of submarine cable failures between %s and %s",
		regions[a], regions[b]), nlq.IntentCascade}
}

// forensic draws the anomaly's onset within the scenario's window.
func (g *generator) forensic() query {
	return query{fmt.Sprintf("A sudden increase in latency was observed from European probes to Asian destinations starting %s days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
		dayWords[g.rng.IntN(len(dayWords))]), nlq.IntentForensic}
}

// hotSet is the hot workload's query set: the four case studies
// followed by twelve drawn queries, three per intent, all distinct.
// Its order is the Zipf rank order.
func (g *generator) hotSet() []query {
	out := append([]query(nil), caseStudies...)
	seen := map[string]bool{}
	for _, q := range out {
		seen[q.Text] = true
	}
	draw := []func() query{g.cableImpact, g.disaster, g.cascade, g.forensic}
	for i := 0; len(out) < 16; i++ {
		q := draw[i%len(draw)]()
		for seen[q.Text] {
			q = draw[i%len(draw)]()
		}
		seen[q.Text] = true
		out = append(out, q)
	}
	return out
}

// stream draws n queries.
func (g *generator) stream(n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
