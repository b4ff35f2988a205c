package core

// Persistent cache snapshots: SaveSnapshot serializes a System's warm
// state — the queries whose plans are cached plus every step-cache
// entry the wire codec can represent — and LoadSnapshot restores it
// into a freshly built System, so a restarted server answers its
// first repeated query as a cache hit instead of re-executing the
// workflow.
//
// What is persisted, and how:
//
//   - Step results are encoded with the fleetwire codec's tagged value
//     envelopes (the same closed tag↔type registry the worker wire
//     uses), keyed by the raw step fingerprint. Entries holding values
//     outside the codec's registry are skipped — they simply re-execute
//     once after restart.
//   - Plans are persisted as their query text, not their artifacts
//     (planning output holds unserializable state — quality-check
//     closures, capability handles). LoadSnapshot re-plans each query
//     through the deterministic planning agents; planning is the cheap
//     half, and the replay repopulates the plan cache and its compiled
//     artifacts at load time.
//
// Validation: the snapshot header carries a content digest of the
// world, the registry generation and size, the scenario digest, and
// the environment's (identity, epoch) fingerprint counters. Loading
// rejects any mismatch — serving stale results would be silent
// corruption — and on success *adopts* the saved identity counters so
// the persisted step fingerprints resolve (see
// Environment.adoptFingerprint).
//
// The value codec itself lives in internal/fleetwire, which imports
// core; the dependency therefore runs through an injection seam
// (SetSnapshotValueCodec, called from fleetwire's init), and
// SaveSnapshot/LoadSnapshot fail with a clear error in binaries that
// somehow link core without fleetwire.

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"arachnet/internal/netsim"
)

// snapshotVersion is bumped whenever the snapshot layout changes;
// loaders reject other versions.
const snapshotVersion = 1

// Snapshot value codec, injected by internal/fleetwire (see package
// comment). Registration happens in an init, before any System exists.
var (
	snapEncodeValues func(map[string]any) (json.RawMessage, error)
	snapDecodeValues func(json.RawMessage) (map[string]any, error)
)

// SetSnapshotValueCodec installs the tagged-envelope codec snapshots
// encode step outputs with. Called once from internal/fleetwire's
// init; later calls overwrite (tests).
func SetSnapshotValueCodec(
	enc func(map[string]any) (json.RawMessage, error),
	dec func(json.RawMessage) (map[string]any, error),
) {
	snapEncodeValues, snapDecodeValues = enc, dec
}

// snapshotFile is the on-disk layout (JSON, one object).
type snapshotFile struct {
	Version int `json:"version"`
	// SavedAt is informational only; validation never consults it.
	SavedAt time.Time `json:"saved_at,omitempty"`
	// World is a content digest over the generated world (config,
	// topology, country assignment) — two worlds agree on it only if
	// they were generated from the same config and seed.
	World string `json:"world"`
	// RegistryGen and RegistrySize pin the catalog the cached state was
	// computed against.
	RegistryGen  uint64 `json:"registry_generation"`
	RegistrySize int    `json:"registry_size"`
	// EnvID and EnvEpoch are the environment fingerprint counters the
	// persisted step keys embed; the loader adopts them after
	// validation.
	EnvID    uint64 `json:"env_id"`
	EnvEpoch uint64 `json:"env_epoch"`
	// Scenario digests the injected measurement scenario ("" = none).
	Scenario string `json:"scenario,omitempty"`
	// Queries are the plan-cache contents, re-planned at load.
	Queries []string `json:"queries,omitempty"`
	// Steps are the step-cache contents: base64 raw fingerprint →
	// tagged-envelope output map.
	Steps []snapshotStep `json:"steps,omitempty"`
	// SkippedSteps counts cache entries the codec could not represent
	// (informational).
	SkippedSteps int `json:"skipped_steps,omitempty"`
}

type snapshotStep struct {
	Key string          `json:"key"`
	Out json.RawMessage `json:"out"`
}

// worldDigest fingerprints the generated world by content: the
// generation config (which embeds the seed) plus the full router and
// link inventory. Hashing topology rather than just counts means two
// different seeds can never validate against each other's snapshots.
func worldDigest(w *netsim.World) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|cfg=%+v|routers=%d|links=%d|ases=%d|", w.Cfg, len(w.Routers), len(w.IPLinks), len(w.ASes))
	for i := range w.Routers {
		r := &w.Routers[i]
		fmt.Fprintf(h, "r%d:%d:%s;", r.ID, r.ASN, r.Country)
	}
	for i := range w.IPLinks {
		l := &w.IPLinks[i]
		fmt.Fprintf(h, "l%d:%d-%d:%d;", l.ID, l.A, l.B, l.Kind)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioDigest fingerprints the injected scenario (or "" when none):
// ground truth, window, and the sizes and first/last elements of the
// generated archive and stream. Scenarios are generated
// deterministically from their config, so agreement here means the
// same injection sequence produced them.
func (e *Environment) scenarioDigest() string {
	sc := e.scenario()
	if sc == nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "v1|cable=%s|failAt=%s|start=%s|end=%s|links=%v|",
		sc.TrueCable, sc.FailureAt.UTC().Format(time.RFC3339Nano),
		sc.Start.UTC().Format(time.RFC3339Nano), sc.End.UTC().Format(time.RFC3339Nano),
		sc.FailedLink)
	if a := sc.Archive; a != nil {
		fmt.Fprintf(h, "meas=%d|", len(a.Measurements))
		if n := len(a.Measurements); n > 0 {
			first, last := a.Measurements[0], a.Measurements[n-1]
			fmt.Fprintf(h, "m0=%s@%s:%.3f|mN=%s@%s:%.3f|",
				first.Probe, first.Time.UTC().Format(time.RFC3339Nano), first.RTTms,
				last.Probe, last.Time.UTC().Format(time.RFC3339Nano), last.RTTms)
		}
	}
	fmt.Fprintf(h, "msgs=%d", len(sc.Stream))
	return hex.EncodeToString(h.Sum(nil))
}

// SaveSnapshot writes the System's warm cache state to w: a versioned,
// fingerprint-stamped JSON document holding the plan cache as query
// text and the step cache as codec-encoded output maps. Entries whose
// values the wire codec cannot represent are skipped (counted in the
// header), never mis-encoded. Intended at drain time — concurrent
// serving is safe (each cache is walked under its shard locks) but the
// snapshot then reflects an instant somewhere during the walk.
func (s *System) SaveSnapshot(w io.Writer) error {
	if snapEncodeValues == nil {
		return fmt.Errorf("core: snapshot value codec not installed (link arachnet/internal/fleetwire)")
	}
	f := snapshotFile{
		Version:      snapshotVersion,
		SavedAt:      time.Now().UTC(),
		World:        worldDigest(s.env.World),
		RegistryGen:  s.reg.Generation(),
		RegistrySize: s.reg.Size(),
		EnvID:        s.env.fpID.Load(),
		EnvEpoch:     s.env.fpEpoch.Load(),
		Scenario:     s.env.scenarioDigest(),
	}
	seen := map[string]bool{}
	for _, ent := range s.planCache.entries() {
		pe, ok := ent.val.(*planEntry)
		if !ok || pe.query == "" || seen[pe.query] {
			continue
		}
		seen[pe.query] = true
		f.Queries = append(f.Queries, pe.query)
	}
	sort.Strings(f.Queries)
	for _, ent := range s.stepCache.entries() {
		out, ok := ent.val.(map[string]any)
		if !ok {
			f.SkippedSteps++
			continue
		}
		raw, err := snapEncodeValues(out)
		if err != nil {
			// A value outside the codec's closed registry: cheap to
			// recompute after restart, dangerous to guess an encoding
			// for.
			f.SkippedSteps++
			continue
		}
		f.Steps = append(f.Steps, snapshotStep{
			Key: base64.StdEncoding.EncodeToString([]byte(ent.key)),
			Out: raw,
		})
	}
	sort.Slice(f.Steps, func(i, j int) bool { return f.Steps[i].Key < f.Steps[j].Key })
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// LoadSnapshot restores cache state saved by SaveSnapshot into this
// System. The snapshot must have been taken against an equivalent
// setup: same world content (config and seed), same registry
// generation and size, same injected scenario — any mismatch is
// rejected with an error and the System is left untouched, because
// serving another world's cached results would be silently wrong. On
// success the environment adopts the saved fingerprint identity (the
// persisted step keys embed it), step entries are inserted, and each
// saved query is re-planned to warm the plan cache and its compiled
// artifacts. Intended at boot, before serving traffic.
func (s *System) LoadSnapshot(r io.Reader) error {
	if snapDecodeValues == nil {
		return fmt.Errorf("core: snapshot value codec not installed (link arachnet/internal/fleetwire)")
	}
	var f snapshotFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("core: snapshot decode: %w", err)
	}
	if f.Version != snapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", f.Version, snapshotVersion)
	}
	if got := worldDigest(s.env.World); f.World != got {
		return fmt.Errorf("core: snapshot world mismatch: snapshot %.12s…, this world %.12s… (different config or seed)", f.World, got)
	}
	if gen := s.reg.Generation(); f.RegistryGen != gen {
		return fmt.Errorf("core: snapshot registry generation %d, this registry %d (catalog changed)", f.RegistryGen, gen)
	}
	if size := s.reg.Size(); f.RegistrySize != size {
		return fmt.Errorf("core: snapshot registry size %d, this registry %d (catalog changed)", f.RegistrySize, size)
	}
	if got := s.env.scenarioDigest(); f.Scenario != got {
		return fmt.Errorf("core: snapshot scenario mismatch (snapshot %.12q, this environment %.12q)", f.Scenario, got)
	}
	// Adopt the saved fingerprint identity before touching either
	// cache so inserted step keys and re-planned plan keys both
	// resolve under it.
	s.env.adoptFingerprint(f.EnvID, f.EnvEpoch)
	for _, st := range f.Steps {
		key, err := base64.StdEncoding.DecodeString(st.Key)
		if err != nil {
			return fmt.Errorf("core: snapshot step key: %w", err)
		}
		out, err := snapDecodeValues(st.Out)
		if err != nil {
			// A tag this build doesn't know (snapshot from a newer
			// binary): skip the entry rather than fail the boot — it
			// re-executes once.
			continue
		}
		s.stepCache.Put(string(key), out, estimateSize(out))
	}
	// Re-plan the saved queries. The planning agents are deterministic
	// and cheap relative to execution; a query that no longer plans
	// (e.g. against a trimmed registry subset — already screened by the
	// generation check, but belt and braces) just stays cold.
	for _, q := range f.Queries {
		em := &emitter{query: q}
		rep := &Report{Query: q}
		cfg := askConfig{curate: false, parallelism: 1}
		_, _, _ = s.plan(context.Background(), q, cfg, em, rep)
	}
	return nil
}
