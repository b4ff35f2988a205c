package core

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"arachnet/internal/fleet"
	"arachnet/internal/netsim"
	"arachnet/internal/traceroute"
	"arachnet/internal/xaminer"
)

// installScatterSpecs teaches a fleet how the builtin catalog's
// fan-out capabilities partition and gather. Only capabilities whose
// inputs have clear shard ownership get specs — everything else is
// declined back to the coordinator, which is always correct.
//
// The invariant every Merge here upholds: the gathered output is
// byte-identical to running the capability unsharded, for any shard
// count. Splits must likewise decline (or skip elements) under
// conditions that do not depend on the shard count, or fleets of
// different sizes would diverge.
func installScatterSpecs(f *fleet.Fleet) {
	// nautilus.extract_ips: links are owned by the shard of their
	// A-endpoint country; the unsharded output is a sorted address
	// set, so a sorted dedup union of per-shard sets reproduces it
	// exactly. Unknown link IDs are skipped, mirroring the
	// capability's own behavior.
	f.SetScatter("nautilus.extract_ips", fleet.Scatter{
		Split: func(p *netsim.Partition, _ any, in map[string]any) (map[int]map[string]any, bool) {
			links, ok := in["links"].([]netsim.LinkID)
			if !ok {
				return nil, false
			}
			parts := map[int]map[string]any{}
			for _, id := range links {
				s := p.ShardOfLink(id)
				if s < 0 {
					continue // unknown link: the capability skips it too
				}
				part := parts[s]
				if part == nil {
					part = map[string]any{"links": []netsim.LinkID(nil)}
					parts[s] = part
				}
				part["links"] = append(part["links"].([]netsim.LinkID), id)
			}
			return parts, true
		},
		Merge: func(p *netsim.Partition, _ any, orig map[string]any, parts map[int]map[string]any) (map[string]any, error) {
			set := map[netip.Addr]bool{}
			for shard, out := range parts {
				ips, ok := out["ips"].([]netip.Addr)
				if !ok {
					return nil, fmt.Errorf("shard %d produced %T for ips", shard, out["ips"])
				}
				for _, a := range ips {
					set[a] = true
				}
			}
			merged := make([]netip.Addr, 0, len(set))
			for a := range set {
				merged = append(merged, a)
			}
			sort.Slice(merged, func(i, j int) bool { return merged[i].Less(merged[j]) })
			return map[string]any{"ips": merged}, nil
		},
	})

	// xaminer.impact_from_links: the full-registry CS1 path. Links are
	// owned by the shard of their A-endpoint country; each shard runs
	// the Xaminer embedding over its own links, and the gather re-adds
	// the per-country loss counts. Three of the four metrics are plain
	// weighted sums of per-link contributions (weight 1.0, so sums are
	// exact) and add across shards; ASesHit counts *distinct* (country,
	// AS) pairs, which is not additive — a link in shard 1 and a link
	// in shard 2 can hit the same AS — so the merge recomputes it from
	// the original link set. Per-country totals come from any partial
	// (every worker computed them over the identical full world), and
	// scores are recomputed with xaminer.ScoreOf — the same arithmetic,
	// in the same order, as the unsharded path.
	f.SetScatter("xaminer.impact_from_links", fleet.Scatter{
		Split: func(p *netsim.Partition, _ any, in map[string]any) (map[int]map[string]any, bool) {
			links, ok := in["links"].([]netsim.LinkID)
			if !ok {
				return nil, false
			}
			parts := map[int]map[string]any{}
			for _, id := range links {
				s := p.ShardOfLink(id)
				if s < 0 {
					continue // unknown link: the capability skips it too
				}
				part := parts[s]
				if part == nil {
					part = map[string]any{"links": []netsim.LinkID(nil)}
					parts[s] = part
				}
				part["links"] = append(part["links"].([]netsim.LinkID), id)
			}
			return parts, true
		},
		Merge: func(p *netsim.Partition, _ any, orig map[string]any, parts map[int]map[string]any) (map[string]any, error) {
			links, ok := orig["links"].([]netsim.LinkID)
			if !ok {
				return nil, fmt.Errorf("original links input is %T", orig["links"])
			}
			byCountry := map[string]xaminer.CountryImpact{}
			for shard, out := range parts {
				rep, ok := out["report"].(*xaminer.ImpactReport)
				if !ok {
					return nil, fmt.Errorf("shard %d produced %T for report", shard, out["report"])
				}
				for _, ci := range rep.Countries {
					cur, seen := byCountry[ci.Country]
					if !seen {
						// Totals are world-derived and identical on
						// every worker; take them once.
						cur = xaminer.CountryImpact{
							Country:    ci.Country,
							LinksTotal: ci.LinksTotal, IPsTotal: ci.IPsTotal,
							ASesTotal: ci.ASesTotal, ASLinksTot: ci.ASLinksTot,
						}
					}
					cur.LinksLost += ci.LinksLost
					cur.IPsLost += ci.IPsLost
					cur.ASLinksLost += ci.ASLinksLost
					byCountry[ci.Country] = cur
				}
			}
			// Distinct (country, AS) hits recomputed over the failed
			// link set — the one metric shards cannot sum.
			w := p.World()
			asesHit := map[string]map[netsim.ASN]bool{}
			markAS := func(cc string, asn netsim.ASN) {
				if asesHit[cc] == nil {
					asesHit[cc] = map[netsim.ASN]bool{}
				}
				asesHit[cc][asn] = true
			}
			failed := linkSet(links)
			for id := range failed {
				l, ok := w.LinkByID(id)
				if !ok {
					continue
				}
				ca, cb := w.LinkEndpoints(l)
				markAS(ca, l.ASLinkAB[0])
				markAS(cb, l.ASLinkAB[1])
			}
			rep := &xaminer.ImpactReport{Scenario: "xaminer", FailedLinks: len(failed)}
			for cc, ci := range byCountry {
				ci.ASesHit = float64(len(asesHit[cc]))
				ci.Score = xaminer.ScoreOf(ci)
				rep.Countries = append(rep.Countries, ci)
			}
			sort.Slice(rep.Countries, func(i, j int) bool {
				if rep.Countries[i].Score != rep.Countries[j].Score {
					return rep.Countries[i].Score > rep.Countries[j].Score
				}
				return rep.Countries[i].Country < rep.Countries[j].Country
			})
			return map[string]any{"report": rep}, nil
		},
	})

	// geo.locate_ips: addresses are owned by the shard of the country
	// their covering prefix was allocated to. The unsharded output is
	// one GeoRow per locatable input address, in input order; the
	// gather replays the input order, pulling each row from its owning
	// shard's (order-preserving) output and conflict-checking the
	// address. Unlocatable addresses are skipped at split time —
	// exactly the rows the capability itself would drop.
	f.SetScatter("geo.locate_ips", fleet.Scatter{
		Split: func(p *netsim.Partition, _ any, in map[string]any) (map[int]map[string]any, bool) {
			ips, ok := in["ips"].([]netip.Addr)
			if !ok {
				return nil, false
			}
			parts := map[int]map[string]any{}
			for _, a := range ips {
				s := p.ShardOfAddr(a)
				if s < 0 {
					continue // unlocatable: the capability drops it too
				}
				part := parts[s]
				if part == nil {
					part = map[string]any{"ips": []netip.Addr(nil)}
					parts[s] = part
				}
				part["ips"] = append(part["ips"].([]netip.Addr), a)
			}
			return parts, true
		},
		Merge: func(p *netsim.Partition, _ any, orig map[string]any, parts map[int]map[string]any) (map[string]any, error) {
			ips, ok := orig["ips"].([]netip.Addr)
			if !ok {
				return nil, fmt.Errorf("original ips input is %T", orig["ips"])
			}
			rowsOf := make(map[int][]GeoRow, len(parts))
			for shard, out := range parts {
				rows, ok := out["geo"].([]GeoRow)
				if !ok {
					return nil, fmt.Errorf("shard %d produced %T for geo", shard, out["geo"])
				}
				rowsOf[shard] = rows
			}
			cursor := map[int]int{}
			merged := make([]GeoRow, 0, len(ips))
			for _, a := range ips {
				s := p.ShardOfAddr(a)
				if s < 0 {
					continue
				}
				rows := rowsOf[s]
				i := cursor[s]
				if i >= len(rows) {
					return nil, fmt.Errorf("shard %d returned %d rows, need more for %s", s, len(rows), a)
				}
				if rows[i].Addr != a {
					return nil, fmt.Errorf("shard %d row %d is %s, want %s (order conflict)", s, i, rows[i].Addr, a)
				}
				cursor[s] = i + 1
				merged = append(merged, rows[i])
			}
			for s, rows := range rowsOf {
				if cursor[s] != len(rows) {
					return nil, fmt.Errorf("shard %d returned %d surplus rows", s, len(rows)-cursor[s])
				}
			}
			return map[string]any{"geo": merged}, nil
		},
	})

	// traceroute.archive_window: the first environment-reading scatter.
	// The capability has no bound inputs — its fan-out data is the
	// injected scenario's probe archive — so Split partitions by probe
	// instead: each probe is owned by the shard of its source country
	// (the first component of the "SRC-DST-n" campaign probe name), and
	// every shard receives a sorted probe-name subset as the undeclared
	// "probes" input the capability's Impl honors as an order-preserving
	// filter. Declines are shard-count-independent: no scenario/archive
	// in the environment, or any probe whose source country the
	// partition doesn't know. Merge replays the coordinator archive's
	// full measurement order, pulling each measurement from its owning
	// shard's (order-preserving) filtered archive with per-shard cursors
	// and probe/time conflict checks — so the gathered archive is
	// element-identical to the unsharded one for any shard count.
	f.SetScatter("traceroute.archive_window", fleet.Scatter{
		Split: func(p *netsim.Partition, env any, in map[string]any) (map[int]map[string]any, bool) {
			e, ok := env.(*Environment)
			if !ok {
				return nil, false
			}
			sc := e.scenario()
			if sc == nil || sc.Archive == nil {
				return nil, false
			}
			byShard := map[int][]string{}
			for _, probe := range sc.Archive.Probes() {
				s := p.ShardOfCountry(probeSourceCountry(probe))
				if s < 0 {
					// A probe no shard owns: the whole step must run on
					// the coordinator — dropping it would change the
					// archive.
					return nil, false
				}
				byShard[s] = append(byShard[s], probe)
			}
			parts := make(map[int]map[string]any, len(byShard))
			for s, probes := range byShard {
				sort.Strings(probes)
				parts[s] = map[string]any{"probes": probes}
			}
			return parts, true
		},
		Merge: func(p *netsim.Partition, env any, orig map[string]any, parts map[int]map[string]any) (map[string]any, error) {
			e, ok := env.(*Environment)
			if !ok {
				return nil, fmt.Errorf("environment lost its archive between split and merge")
			}
			sc := e.scenario()
			if sc == nil || sc.Archive == nil {
				return nil, fmt.Errorf("environment lost its archive between split and merge")
			}
			full := sc.Archive.Measurements
			archOf := make(map[int][]traceroute.Measurement, len(parts))
			for shard, out := range parts {
				arch, ok := out["archive"].(*traceroute.Archive)
				if !ok {
					return nil, fmt.Errorf("shard %d produced %T for archive", shard, out["archive"])
				}
				archOf[shard] = arch.Measurements
			}
			cursor := map[int]int{}
			merged := &traceroute.Archive{Measurements: make([]traceroute.Measurement, 0, len(full))}
			for _, m := range full {
				s := p.ShardOfCountry(probeSourceCountry(m.Probe))
				if s < 0 {
					return nil, fmt.Errorf("probe %s lost its shard between split and merge", m.Probe)
				}
				ms := archOf[s]
				i := cursor[s]
				if i >= len(ms) {
					return nil, fmt.Errorf("shard %d returned %d measurements, need more for %s", s, len(ms), m.Probe)
				}
				if ms[i].Probe != m.Probe || !ms[i].Time.Equal(m.Time) {
					return nil, fmt.Errorf("shard %d measurement %d is %s@%s, want %s@%s (order conflict)",
						s, i, ms[i].Probe, ms[i].Time, m.Probe, m.Time)
				}
				cursor[s] = i + 1
				merged.Measurements = append(merged.Measurements, ms[i])
			}
			for s, ms := range archOf {
				if cursor[s] != len(ms) {
					return nil, fmt.Errorf("shard %d returned %d surplus measurements", s, len(ms)-cursor[s])
				}
			}
			return map[string]any{"archive": merged}, nil
		},
	})
}

// probeSourceCountry extracts the source-country prefix from a campaign
// probe name of the form "SRC-DST-n" ("" when the name has no dash).
func probeSourceCountry(name string) string {
	if i := strings.IndexByte(name, '-'); i > 0 {
		return name[:i]
	}
	return ""
}
