package dynflow

import (
	"github.com/chronus-sdn/chronus/internal/obs"
)

// validatorMetrics bundles the validator's instruments; built from a
// possibly-nil registry (nil instruments are no-ops).
type validatorMetrics struct {
	// runs counts full validations and Delta trials (a Delta's build
	// from its base schedule included).
	runs *obs.Counter
	// traces counts the emissions a validator walks: each one whole in
	// Validate and in a Delta's build; in a Delta trial, each emission
	// re-traced from the flipped switch on, or traced whole as it
	// enters the window.
	traces     *obs.Counter
	denseLoads *obs.Counter
	mapLoads   *obs.Counter
	window     *obs.Histogram
}

// RegisterMetrics pre-registers the validator metric families on r so
// they appear in expositions before the first validation.
func RegisterMetrics(r *obs.Registry) {
	newValidatorMetrics(r)
}

func newValidatorMetrics(r *obs.Registry) validatorMetrics {
	if r != nil {
		r.Help("chronus_validator_runs_total", "ground-truth validations and incremental trials")
		r.Help("chronus_validator_traces_total", "emissions walked, whole or as a suffix re-traced by an incremental trial")
		r.Help("chronus_validator_load_accounting_total", "load-accounting runs by backend (dense array vs map fallback)")
		r.Help("chronus_validator_window_ticks", "validation window size in ticks")
	}
	return validatorMetrics{
		runs:       r.Counter("chronus_validator_runs_total"),
		traces:     r.Counter("chronus_validator_traces_total"),
		denseLoads: r.Counter(`chronus_validator_load_accounting_total{backend="dense"}`),
		mapLoads:   r.Counter(`chronus_validator_load_accounting_total{backend="map"}`),
		window:     r.Histogram("chronus_validator_window_ticks", []float64{8, 16, 32, 64, 128, 256, 512, 1024, 4096}),
	}
}
