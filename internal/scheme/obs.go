package scheme

import (
	"errors"
	"fmt"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// RegisterMetrics pre-registers the scheme-labelled solve family for every
// registered scheme, so scrapes show the full cast at zero before the
// first solve.
func RegisterMetrics(r *obs.Registry) {
	r.Help("chronus_scheme_solve_total", "Registry-driven solves by scheme and outcome (ok, best_effort, infeasible, unsupported, error).")
	for _, name := range Names() {
		r.Counter(fmt.Sprintf(`chronus_scheme_solve_total{scheme=%q,outcome="ok"}`, name))
	}
}

// outcomeOf collapses a solve's (result, error) pair into the metric label.
func outcomeOf(res *Result, err error) string {
	switch {
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnsupported):
		return "unsupported"
	case err != nil:
		return "error"
	case res != nil && res.BestEffort:
		return "best_effort"
	default:
		return "ok"
	}
}

func observe(r *obs.Registry, name string, res *Result, err error) {
	if r == nil {
		return
	}
	r.Counter(fmt.Sprintf(`chronus_scheme_solve_total{scheme=%q,outcome=%q}`, name, outcomeOf(res, err))).Inc()
}
