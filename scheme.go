package chronus

import (
	"time"

	"github.com/chronus-sdn/chronus/internal/scheme"
)

// ErrUnknownScheme reports a SolveWith against a name no scheme registered
// under; its message lists the registered names.
var ErrUnknownScheme = scheme.ErrUnknown

// ErrSchemeUnsupported reports that the instance violates a structural
// precondition of the chosen scheme (e.g. the tree check on non-uniform
// link delays); the instance may still be solvable by other schemes.
var ErrSchemeUnsupported = scheme.ErrUnsupported

// Schemes returns the names of every registered update scheme, sorted.
// The built-in cast is the paper's: "chronus" and "chronus-fast" (the
// greedy scheduler in both acceptance modes), "opt" (exact branch and
// bound), "or" (order replacement rounds), "oneshot" (flip everything at
// once), "tree" (the polynomial feasibility decision) and "sequential"
// (one switch per drain interval).
func Schemes() []string { return scheme.Names() }

// SchemeOptions is the uniform configuration SolveWith passes to any
// scheme; knobs that do not apply to the chosen scheme are ignored.
type SchemeOptions struct {
	// Start is t0, the first tick at which updates may activate.
	Start Tick
	// MaxNodes caps search nodes for the branch-and-bound schemes; for
	// "or" a non-zero value (or Timeout) selects round-minimizing search.
	MaxNodes int
	// Timeout bounds wall-clock search time (0 = none).
	Timeout time.Duration
	// MaxTicks caps how far the greedy schedulers advance past Start.
	MaxTicks Tick
	// BestEffort returns a complete schedule even when no violation-free
	// one exists; the result's BestEffort flag is then set.
	BestEffort bool
	// Obs receives engine counters plus a scheme-labelled solve counter.
	Obs *MetricsRegistry
	// Trace receives per-decision engine events.
	Trace *Tracer
	// VT is the virtual time stamped on the solve span.
	VT int64
	// Span is the parent span the solve span is recorded under.
	Span SpanID
}

// SchemeResult is the uniform outcome of SolveWith. Timed schemes set
// Schedule; round-based schemes set Rounds; decision-only schemes set
// Feasible. Dispatch on the shape, not on the scheme name, and the calling
// code stays correct when new schemes register.
type SchemeResult struct {
	// Schedule is the timed update schedule, when the scheme produces one.
	Schedule *Schedule
	// Rounds is the round sequence of round-based schemes (or the witness
	// order of a feasible tree decision).
	Rounds [][]NodeID
	// Report is the engine's own validation of Schedule when it computed
	// one; nil means call Validate for the certificate.
	Report *Report
	// Exact marks provably optimal (or proven-decision) results.
	Exact bool
	// BestEffort marks a complete-but-possibly-violating schedule.
	BestEffort bool
	// Feasible is the verdict of decision-only schemes; nil otherwise.
	Feasible *bool
	// Diagnostics carries engine counters (search "nodes", greedy
	// "validations", "budget_exhausted", ...) under stable keys.
	Diagnostics map[string]int64
}

// SolveWith runs the named registered scheme on the instance. It returns
// ErrUnknownScheme for unregistered names, ErrInfeasible (possibly
// wrapped) on proven infeasibility, and ErrSchemeUnsupported when the
// instance is outside the scheme's preconditions.
func SolveWith(name string, in *Instance, o SchemeOptions) (*SchemeResult, error) {
	res, err := scheme.Solve(name, in, scheme.Options{
		Start:      o.Start,
		Budget:     scheme.Budget{MaxNodes: o.MaxNodes, Timeout: o.Timeout, MaxTicks: o.MaxTicks},
		BestEffort: o.BestEffort,
		Obs:        o.Obs,
		Trace:      o.Trace,
		VT:         o.VT,
		Span:       o.Span,
	})
	if err != nil {
		return nil, err
	}
	return &SchemeResult{
		Schedule:    res.Schedule,
		Rounds:      res.Rounds,
		Report:      res.Report,
		Exact:       res.Exact,
		BestEffort:  res.BestEffort,
		Feasible:    res.Feasible,
		Diagnostics: res.Diagnostics,
	}, nil
}
