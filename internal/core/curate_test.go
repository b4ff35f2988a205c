package core

// Incremental curation, end to end: the System's window must promote
// exactly what batch Curate promotes over the same history — ask by
// ask, across history trims — and concurrent curated asks must leave
// nothing for a final batch pass to promote.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"arachnet/internal/agents/registrycurator"
)

// curationQueries mixes case studies and cables so the history holds
// several distinct plans, replanned whenever a promotion bumps the
// registry generation.
var curationQueries = []string{
	queryCS1,
	"Identify the impact at a country level due to SeaMeWe-4 cable failure",
	"Identify the impact at a country level due to AAE-1 cable failure",
	queryCS2,
	queryCS3,
	queryCS4,
}

// samePromotions compares two promotion lists on everything but the
// composites' implementation closures.
func samePromotions(a, b []registrycurator.Promotion) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d promotions vs %d", len(a), len(b))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		pa.Capability.Impl, pb.Capability.Impl = nil, nil
		if !reflect.DeepEqual(pa, pb) {
			return fmt.Errorf("promotion %d: %+v vs %+v", i, pa, pb)
		}
	}
	return nil
}

func TestCurationMatchesBatch(t *testing.T) {
	sys, err := NewSystem(testEnv(t, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	shadow := sys.Registry().Clone()
	curator := registrycurator.New()
	const asks = 700 // wraps the 512+64 window twice
	trims, promoted, late, lastLen := 0, 0, 0, 0
	for i := 0; i < asks; i++ {
		// Mostly the single-query case studies 2-4; the three cable
		// variants of case study 1 share their chains, so the first
		// one's lone observation has left the window by the time the
		// second arrives, and only the third gives the chain support 2.
		q := curationQueries[3+i%3]
		switch i {
		case 0:
			q = curationQueries[0]
		case 650:
			q = curationQueries[1]
		case 680:
			q = curationQueries[2]
		}
		var opts []AskOption
		skip := i%5 == 4 // its observation is curated by the next ask
		if skip {
			opts = append(opts, AskWithoutCuration())
		}
		rep, err := sys.Ask(ctx, q, opts...)
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		hist := sys.History()
		if len(hist) < lastLen {
			trims++
		}
		lastLen = len(hist)
		if skip {
			continue
		}
		want, err := curator.Curate(hist, shadow)
		if err != nil {
			t.Fatalf("ask %d: batch: %v", i, err)
		}
		if err := samePromotions(rep.Promotions, want); err != nil {
			t.Fatalf("ask %d (%q): window and batch differ: %v", i, q, err)
		}
		promoted += len(want)
		if trims > 0 {
			late += len(want)
		}
	}
	t.Logf("%d asks, %d trims, %d promotions (%d after the trims)", asks, trims, promoted, late)
	if trims < 2 {
		t.Errorf("history trimmed %d times, want ≥ 2", trims)
	}
	if late == 0 {
		t.Error("nothing promoted after the trims: the comparison never exercised a slid window")
	}
	if g, s := sys.Registry().Generation(), shadow.Generation(); g != s {
		t.Errorf("registry generations diverged: system %d, shadow %d", g, s)
	}
}

// TestConcurrentCurationReachesFixpoint is the -race hammer: curated
// asks from four goroutines push and promote concurrently, and once
// they are done a batch pass over the final history finds nothing
// left to promote.
func TestConcurrentCurationReachesFixpoint(t *testing.T) {
	sys, err := NewSystem(testEnv(t, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	const askers = 4
	rounds := 160 // 640 asks: crosses a trim
	if testing.Short() {
		rounds = 40
	}
	var wg sync.WaitGroup
	errc := make(chan error, askers)
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := curationQueries[(g+r*3)%len(curationQueries)]
				if _, err := sys.Ask(ctx, q); err != nil {
					errc <- fmt.Errorf("asker %d round %d: %w", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if len(sys.Promotions()) == 0 {
		t.Error("nothing promoted under the hammer")
	}
	left, err := registrycurator.New().Curate(sys.History(), sys.Registry().Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("batch curation after the hammer still promotes %d: %+v", len(left), left)
	}
}
