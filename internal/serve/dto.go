// Wire views: the summary shapes the HTTP tier serves by default. The
// full *core.Report (with its json tags) is available behind the
// request's "full" flag; the summary keeps routine responses small and
// stable while still naming every executed capability — which is also
// what the isolation tests inspect to prove no cross-tenant leakage.
//
// The summary's field order is part of the contract: query comes
// first and elapsed_us last, so a warm /v1/ask that replays a cached
// plan whole can splice those two around memoized bytes (answers.go)
// and still send exactly what summarizeReport and writeJSON would.
package serve

import (
	"encoding/json"
	"fmt"

	"arachnet/internal/core"
)

// reportJSON summarizes one pipeline run.
type reportJSON struct {
	// Query must stay the first field (see the file comment).
	Query string `json:"query"`
	// Intent is QueryMind's reading of the query.
	Intent string `json:"intent,omitempty"`
	// Strategy is WorkflowScout's chosen design strategy.
	Strategy string `json:"strategy,omitempty"`
	// Code is the generated workflow program.
	Code string `json:"code,omitempty"`
	// Steps records the executed workflow steps in order.
	Steps []stepJSON `json:"steps,omitempty"`
	// QualityScore is the fraction of passed quality checks.
	QualityScore *float64 `json:"quality_score,omitempty"`
	// Outputs carries the declared workflow outputs, JSON-encoded when
	// possible and rendered as text otherwise.
	Outputs map[string]json.RawMessage `json:"outputs,omitempty"`
	// Promotions names composites the curator promoted after this run.
	Promotions []string `json:"promotions,omitempty"`
	// ElapsedUS must stay the last field.
	ElapsedUS int64 `json:"elapsed_us"`
}

type stepJSON struct {
	ID         string `json:"id"`
	Capability string `json:"capability"`
	DurationUS int64  `json:"duration_us"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
}

// summarizeReport builds the wire summary of a (possibly partial, or
// nil) report.
func summarizeReport(rep *core.Report) *reportJSON {
	if rep == nil {
		return nil
	}
	out := &reportJSON{
		Query:     rep.Query,
		Intent:    string(rep.Spec.Intent),
		ElapsedUS: rep.Elapsed.Microseconds(),
	}
	if rep.Design != nil {
		out.Strategy = rep.Design.Strategy
	}
	if rep.Solution != nil {
		out.Code = rep.Solution.Code
	}
	if rep.Result != nil {
		for _, st := range rep.Result.Steps {
			sj := stepJSON{
				ID:         st.ID,
				Capability: st.Capability,
				DurationUS: st.Duration.Microseconds(),
				Cached:     st.Cached,
			}
			if st.Err != nil {
				sj.Error = st.Err.Error()
			}
			out.Steps = append(out.Steps, sj)
		}
		q := rep.Result.QualityScore()
		out.QualityScore = &q
		if len(rep.Result.Outputs) > 0 {
			out.Outputs = make(map[string]json.RawMessage, len(rep.Result.Outputs))
			for name, v := range rep.Result.Outputs {
				out.Outputs[name] = jsonValue(v)
			}
		}
	}
	for _, p := range rep.Promotions {
		out.Promotions = append(out.Promotions, p.Capability.Name)
	}
	return out
}

// jsonValue encodes an arbitrary output value, falling back to a
// quoted text rendering for values JSON cannot represent.
func jsonValue(v any) json.RawMessage {
	if data, err := json.Marshal(v); err == nil {
		return data
	}
	quoted, _ := json.Marshal(fmt.Sprintf("%v", v))
	return quoted
}
