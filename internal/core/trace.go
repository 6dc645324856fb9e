package core

import (
	"errors"

	"rdfshapes/internal/engine"
	"rdfshapes/internal/obsv"
)

// Trace assembles the query trace of one execution of p: per step, the
// planner's join estimate against the engine's measured intermediate
// size and the join algorithm that actually ran, plus rows, ops, wall
// time, and why execution ended early. rep is the engine's report (nil
// when it failed before reporting) and err its error. The served path
// and cmd/repro's trace table both build their traces here.
func (p *Plan) Trace(query string, rep *engine.ExecReport, err error) obsv.QueryTrace {
	t := obsv.QueryTrace{
		Query:         query,
		Planner:       p.Estimator,
		Plan:          p.String(),
		EstimatedCost: p.Cost,
	}
	if err != nil {
		t.Err = err.Error()
		switch {
		case errors.Is(err, engine.ErrDeadline):
			t.Termination = "deadline"
		case errors.Is(err, engine.ErrCanceled):
			t.Termination = "canceled"
		default:
			t.Termination = "error"
		}
	} else if rep != nil {
		t.Rows = rep.Count
		t.Ops = rep.Ops
		t.WallNanos = rep.Wall.Nanoseconds()
		t.TimedOut = rep.TimedOut
		t.LimitHit = rep.LimitHit
		t.Truncated = rep.Truncated
		switch {
		case rep.TimedOut:
			t.Termination = "ops-budget"
		case rep.Truncated:
			t.Termination = "truncated"
		case rep.LimitHit:
			t.Termination = "limit"
		}
		for i, actual := range rep.Intermediate {
			if i >= len(p.Steps) {
				break
			}
			// The algorithm that ran, not the planner's request: the
			// engine falls back to nested loop when merge validation fails.
			algo := ""
			switch {
			case i < rep.MergeWidth:
				algo = "merge"
			case i > 0:
				algo = "nl"
			}
			t.Patterns = append(t.Patterns, obsv.PatternTrace{
				Pattern:   p.Steps[i].Pattern.String(),
				Estimated: p.Steps[i].JoinEstimate,
				Actual:    actual,
				Algo:      algo,
			})
		}
	}
	t.Finish()
	return t
}
