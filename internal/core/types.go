// Package core assembles the ArachNet system: the simulated measurement
// environment, the built-in capability catalog over every substrate,
// and the four-agent pipeline orchestrator.
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
	"arachnet/internal/topo"
	"arachnet/internal/traceroute"
	"arachnet/internal/xaminer"
)

// GeoRow is one row of a geolocation table: an address resolved to a
// country.
type GeoRow struct {
	Addr    netip.Addr
	Country string
}

// LatencyFinding is the outcome of latency anomaly detection over a
// probe archive: the detected level shift with significance, plus which
// probes exhibit it.
type LatencyFinding struct {
	Detected   bool
	ShiftAt    time.Time
	Probes     []string // probes showing the shift
	MeanBefore float64
	MeanAfter  float64
	DeltaMs    float64
	PValue     float64
	Confidence float64 // statistical evidence strength in [0,1]
	// LostProbes lists probes that went dark instead of slowing down.
	LostProbes []string
}

// CableSuspect is one ranked candidate cable for a forensic
// investigation.
type CableSuspect struct {
	Cable nautilus.CableID
	Score float64 // infrastructure-correlation score in [0,1]
	// WithdrawalHits counts BGP withdrawals attributable to the cable's
	// corridor countries near the anomaly.
	WithdrawalHits int
	// CorridorMatch marks cables on the anomaly's region corridor.
	CorridorMatch bool
	// LinksCarried is the number of IP links mapped onto the cable.
	LinksCarried int
}

// Verdict is the final output of a forensic investigation.
type Verdict struct {
	CauseIsCableFailure bool
	Cable               nautilus.CableID
	Confidence          float64 // fused evidence in [0,1]
	// Evidence components in [0,1].
	StatisticalEvidence float64
	InfraEvidence       float64
	RoutingEvidence     float64
	Explanation         string
}

// TimelineEntry is one event on the unified cross-layer timeline.
type TimelineEntry struct {
	At    time.Time
	Layer string // "cable", "ip", "as", "routing", "measurement"
	What  string
}

// Timeline is the unified cross-layer synthesis the paper's Case
// Study 3 produces: one ordered view spanning cable, IP and AS layers.
type Timeline struct {
	Entries []TimelineEntry
	// Summary metrics pulled from the contributing analyses.
	CablesFailed   int
	LinksLost      int
	ASesDegraded   int
	CascadeRounds  int
	TopCountries   []string
	BurstsDetected int
}

// Layers returns the distinct layers present on the timeline, sorted.
func (t *Timeline) Layers() []string {
	set := map[string]bool{}
	for _, e := range t.Entries {
		set[e.Layer] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Render prints the timeline as text.
func (t *Timeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cross-layer cascade timeline (%d entries)\n", len(t.Entries))
	for _, e := range t.Entries {
		fmt.Fprintf(&b, "  %s [%-11s] %s\n", e.At.Format(time.RFC3339), e.Layer, e.What)
	}
	fmt.Fprintf(&b, "  cables=%d links=%d degradedASes=%d rounds=%d bursts=%d top=%v\n",
		t.CablesFailed, t.LinksLost, t.ASesDegraded, t.CascadeRounds, t.BurstsDetected, t.TopCountries)
	return b.String()
}

// Scenario is injected measurement data covering a time window with a
// known ground-truth failure — the synthetic stand-in for "what really
// happened on the Internet last week".
type Scenario struct {
	Start, End time.Time
	FailureAt  time.Time
	TrueCable  nautilus.CableID // ground truth (never exposed to agents)
	FailedLink []netsim.LinkID
	Archive    *traceroute.Archive
	Stream     []bgp.Message
}

// Environment is the shared execution context capabilities close over:
// the world, the cable catalog and cross-layer map, the Xaminer
// analyzer, and optional scenario data for temporal/forensic analyses.
type Environment struct {
	World    *netsim.World
	Catalog  *nautilus.Catalog
	CrossMap *nautilus.CrossLayerMap
	Analyzer *xaminer.Analyzer
	// Scenario is the injected scenario (nil before the first
	// injection). InjectCableFailureScenario replaces it under scenMu
	// while asks may be running, so code that can run concurrently
	// with an injection — capabilities, planning — reads it through
	// scenario().
	Scenario *Scenario
	Now      time.Time
	scenMu   sync.RWMutex

	// fpID/fpEpoch back Fingerprint(): a process-unique instance
	// identity plus a mutation epoch bumped by scenario injection.
	// Both are atomic — fingerprints are read on every cached Ask while
	// scenario injection bumps the epoch concurrently.
	fpID    atomic.Uint64
	fpEpoch atomic.Uint64

	// fpStrs memoizes the rendered fingerprint strings for the current
	// (fpID, fpEpoch) so warm Asks never re-render them. See
	// fpStringsNow.
	fpStrs atomic.Pointer[fpCached]

	// watchMu guards watchers, the change-notification seam standing
	// queries (System.Subscribe) register with; every mutation pokes
	// them. See Watch.
	watchMu  sync.Mutex
	watchers []chan<- struct{}
}

// scenario returns the current scenario, ordered against a concurrent
// injection. A Scenario is never mutated once injected.
func (e *Environment) scenario() *Scenario {
	e.scenMu.RLock()
	defer e.scenMu.RUnlock()
	return e.Scenario
}

// envOf extracts the Environment from a registry call context.
func envOf(v any) (*Environment, error) {
	e, ok := v.(*Environment)
	if !ok || e == nil {
		return nil, fmt.Errorf("core: call environment is %T, want *Environment", v)
	}
	return e, nil
}

// DataCatalog summarizes what data the environment can serve; QueryMind
// uses it for constraint analysis.
type DataCatalog struct {
	HasCrossLayerMap bool
	MapCoverage      float64
	HasTraceArchive  bool
	HasBGPStream     bool
	WindowDays       int
}

// Data returns the environment's data catalog.
func (e *Environment) Data() DataCatalog {
	d := DataCatalog{}
	if e.CrossMap != nil {
		d.HasCrossLayerMap = true
		d.MapCoverage = e.CrossMap.Coverage(e.World)
	}
	if sc := e.scenario(); sc != nil {
		d.HasTraceArchive = sc.Archive != nil
		d.HasBGPStream = len(sc.Stream) > 0
		d.WindowDays = int(sc.End.Sub(sc.Start).Hours() / 24)
	}
	return d
}

// CascadeBundle is the composite result of cascade analysis: the
// cable-layer cascade and the AS-layer stress propagation together.
type CascadeBundle struct {
	Cable  topo.CableCascade
	Stress topo.StressResult
}
