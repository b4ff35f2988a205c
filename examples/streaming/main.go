// Streaming and async serving: the same pipeline consumed two ways.
// First AskStream turns one query into a live feed of typed events —
// stages, steps, promotions — ending with Done. Then the job queue
// turns the System into a server: Submit returns immediately, each job
// runs on its own goroutine once it holds one of the bounded run slots,
// and each one is watched (Events), awaited (Wait) or cancelled
// (Cancel) independently.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"arachnet"
)

func main() {
	sys, err := arachnet.New(
		arachnet.WithSmallWorld(7),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// 1. One query, streamed: every pipeline transition as it happens.
	fmt.Println("── streaming one query ──")
	query := "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	for ev := range sys.AskStream(ctx, query) {
		switch ev := ev.(type) {
		case *arachnet.StageStarted:
			fmt.Printf("▶ stage %s\n", ev.Stage)
		case *arachnet.StepCompleted:
			fmt.Printf("  ✓ %s (%s) in %v\n", ev.Step, ev.Capability, ev.Duration.Round(time.Microsecond))
		case *arachnet.StepFailed:
			fmt.Printf("  ✗ %s: %v\n", ev.Step, ev.Err)
		case *arachnet.CurationPromoted:
			fmt.Printf("  + promoted %s\n", ev.Promotion.Capability.Name)
		case *arachnet.Done:
			if ev.Err != nil {
				log.Fatal(ev.Err)
			}
			fmt.Printf("done: quality %.2f in %v\n",
				ev.Report.Result.QualityScore(), ev.Report.Elapsed.Round(time.Millisecond))
		}
	}

	// 2. Many queries, asynchronously: Submit never blocks on the
	// pipeline; the jobs take run slots and execute while we do other
	// work, then each Wait collects one result.
	fmt.Println("\n── async job queue ──")
	queries := []string{
		"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
		"Analyze the cascading effects of submarine cable failures between Europe and Asia",
		"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
	}
	var jobs []*arachnet.Job
	for _, q := range queries {
		j, err := sys.Submit(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %d accepted (%s)\n", j.ID(), j.State())
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		rep, err := j.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %d %s: %d steps, quality %.2f in %v\n",
			j.ID(), j.State(), len(rep.Design.Chosen.Steps),
			rep.Result.QualityScore(), rep.Elapsed.Round(time.Millisecond))
	}
}
