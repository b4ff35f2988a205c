package core

import (
	"errors"
	"fmt"

	"arachnet/internal/workflow"
)

// Async serving errors (see jobs.go).
var (
	// ErrJobQueueFull is returned when the bounded queue has no room;
	// callers should shed load or retry later.
	ErrJobQueueFull = errors.New("arachnet: job queue full")
	// ErrJobsStarted is returned by SetJobLimits and SetScheduler once
	// the System has a scheduler (first Submit or attach wins).
	ErrJobsStarted = errors.New("arachnet: job workers already started")
	// ErrJobsClosed is returned after Close shut the job subsystem
	// down (see System.Close).
	ErrJobsClosed = errors.New("arachnet: job subsystem closed")
)

// PipelineError is the typed failure of one Ask: which pipeline stage
// failed, the failing workflow step (execution stage only), and the
// query that triggered it. It wraps the underlying cause, so
// errors.Is/As see through it (e.g. to context.DeadlineExceeded, a
// *querymind.ErrInfeasible, or a *workflow.StepError).
type PipelineError struct {
	// Stage is the pipeline stage that failed: StageProblem,
	// StageDesign, StageSolution, StageResult, or StageCuration.
	Stage string
	// Step is the workflow step ID that failed when Stage is
	// StageResult; empty otherwise.
	Step string
	// Query is the natural-language query of the failed Ask.
	Query string
	// Err is the underlying cause.
	Err error
}

func (e *PipelineError) Error() string {
	msg := "arachnet: stage " + e.Stage
	if e.Step != "" {
		msg += fmt.Sprintf(" step %q", e.Step)
	}
	return msg + ": " + e.Err.Error()
}

func (e *PipelineError) Unwrap() error { return e.Err }

// pipelineErr wraps err with stage and query context, extracting the
// failing step ID when the cause is a workflow step failure.
func pipelineErr(stage, query string, err error) *PipelineError {
	pe := &PipelineError{Stage: stage, Query: query, Err: err}
	var se *workflow.StepError
	if errors.As(err, &se) {
		pe.Step = se.Step
	}
	return pe
}
