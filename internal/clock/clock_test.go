package clock

import (
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// applyEvent builds one sw.apply point event the way switchd emits it.
func applyEvent(seq uint64, sw string, at, skew int64) obs.Event {
	return obs.Event{
		Seq: seq, VT: at + skew, Name: "sw.apply",
		Attrs: []obs.Attr{
			obs.A("switch", sw), obs.A("skew", skew), obs.A("at", at),
			obs.A("key", "f/0"), obs.A("cmd", "mod"), obs.A("next", "R2"),
		},
	}
}

// spanEvent builds a finished-span event the way the tracer encodes it:
// structural attrs first (span/parent/op), then user attrs.
func spanEvent(seq uint64, vt int64, op string, attrs ...obs.Attr) obs.Event {
	all := append([]obs.Attr{
		obs.A("span", seq), obs.A("parent", 0), obs.A("op", op),
	}, attrs...)
	return obs.Event{Seq: seq, VT: vt, Name: obs.SpanEventName, Attrs: all}
}

func TestEstimatorMedianOffsetAndJitter(t *testing.T) {
	e := New(nil)
	// Odd window, symmetric noise (zero slope): median is the middle
	// sample and jitter the worst deviation from it.
	skews := []int64{2, 3, 2, 3, 2} // median 2, worst deviation 1
	for i, s := range skews {
		e.Observe([]obs.Event{applyEvent(uint64(i+1), "R1", int64(100+10*i), s)})
	}
	est, ok := e.Estimate("R1")
	if !ok {
		t.Fatal("no estimate for R1")
	}
	if est.OffsetMilliTicks != 2000 {
		t.Errorf("offset = %d mticks, want 2000", est.OffsetMilliTicks)
	}
	if est.DriftMilliTicksPerKtick != 0 {
		t.Errorf("drift = %d, want 0 for symmetric noise", est.DriftMilliTicksPerKtick)
	}
	if est.JitterMilliTicks != 1000 {
		t.Errorf("jitter = %d mticks, want 1000", est.JitterMilliTicks)
	}
	if est.Samples != 5 || est.WindowSamples != 5 {
		t.Errorf("samples = %d/%d, want 5/5", est.Samples, est.WindowSamples)
	}
	if est.FirstAt != 100 || est.LastAt != 140 {
		t.Errorf("window ticks [%d, %d], want [100, 140]", est.FirstAt, est.LastAt)
	}

	// Even window: median is the rounded mean of the middle pair.
	e2 := New(nil)
	for i, s := range []int64{0, 4, 4, 0} {
		e2.Observe([]obs.Event{applyEvent(uint64(i+1), "R2", int64(50+5*i), s)})
	}
	est2, _ := e2.Estimate("R2")
	if est2.OffsetMilliTicks != 2000 { // (0+4)*500
		t.Errorf("even-window offset = %d mticks, want 2000", est2.OffsetMilliTicks)
	}
}

func TestEstimatorWindowEvictsOldSamples(t *testing.T) {
	e := New(nil)
	var seq uint64
	// Fill beyond the window with skew 9, then overwrite with skew 1.
	for i := 0; i < Window; i++ {
		seq++
		e.Observe([]obs.Event{applyEvent(seq, "R1", int64(i), 9)})
	}
	for i := 0; i < Window; i++ {
		seq++
		e.Observe([]obs.Event{applyEvent(seq, "R1", int64(Window+i), 1)})
	}
	est, _ := e.Estimate("R1")
	if est.OffsetMilliTicks != 1000 {
		t.Errorf("offset after recovery = %d mticks, want 1000 (old spike must age out)", est.OffsetMilliTicks)
	}
	if est.Samples != 2*Window || est.WindowSamples != Window {
		t.Errorf("samples = %d/%d, want %d/%d", est.Samples, est.WindowSamples, 2*Window, Window)
	}
}

func TestEstimatorDriftSlope(t *testing.T) {
	e := New(nil)
	// skew = at/100: exactly 10 mticks/ktick... in ticks per tick the
	// slope is 1/100, i.e. 10 ticks per ktick = 10_000 mticks/ktick.
	for i := 0; i < 20; i++ {
		at := int64(100 * i)
		e.Observe([]obs.Event{applyEvent(uint64(i+1), "R1", at, at/100)})
	}
	est, _ := e.Estimate("R1")
	if est.DriftMilliTicksPerKtick != 10_000 {
		t.Errorf("drift = %d mticks/ktick, want 10000", est.DriftMilliTicksPerKtick)
	}
	// A constant offset has zero slope.
	e2 := New(nil)
	for i := 0; i < 8; i++ {
		e2.Observe([]obs.Event{applyEvent(uint64(i+1), "R1", int64(100*i), 3)})
	}
	est2, _ := e2.Estimate("R1")
	if est2.DriftMilliTicksPerKtick != 0 {
		t.Errorf("constant-offset drift = %d, want 0", est2.DriftMilliTicksPerKtick)
	}
}

func TestEstimatorBarrierRTT(t *testing.T) {
	e := New(nil)
	e.Observe([]obs.Event{
		spanEvent(1, 100, "ctl.send", obs.A("switch", "R1"), obs.A("xid", 7), obs.A("kind", "barrier")),
		spanEvent(2, 105, "sw.barrier", obs.A("switch", "R1"), obs.A("xid", 7)),
		spanEvent(3, 110, "ctl.send", obs.A("switch", "R1"), obs.A("xid", 8), obs.A("kind", "barrier")),
		spanEvent(4, 113, "sw.barrier", obs.A("switch", "R1"), obs.A("xid", 8)),
		// A flowmod send must not enter the RTT pairing.
		spanEvent(5, 120, "ctl.send", obs.A("switch", "R1"), obs.A("xid", 9), obs.A("kind", "flowmod")),
	})
	est, ok := e.Estimate("R1")
	if !ok {
		t.Fatal("no estimate for R1")
	}
	if est.RTTSamples != 2 {
		t.Fatalf("rtt samples = %d, want 2", est.RTTSamples)
	}
	if est.RTTTicks != 5 { // sorted {3,5}: upper median
		t.Errorf("rtt = %d ticks, want 5", est.RTTTicks)
	}
}

// TestEstimatorBarrierBeforeSend: the switch-side sw.barrier span can
// reach the trace before the controller's ctl.send for the same xid; the
// pair must still yield one RTT sample.
func TestEstimatorBarrierBeforeSend(t *testing.T) {
	e := New(nil)
	e.Observe([]obs.Event{
		spanEvent(1, 105, "sw.barrier", obs.A("switch", "R1"), obs.A("xid", 7)),
		spanEvent(2, 100, "ctl.send", obs.A("switch", "R1"), obs.A("xid", 7), obs.A("kind", "barrier")),
	})
	est, ok := e.Estimate("R1")
	if !ok {
		t.Fatal("no estimate for R1")
	}
	if est.RTTSamples != 1 || est.RTTTicks != 5 {
		t.Fatalf("rtt samples = %d, rtt = %d ticks; want 1 sample of 5", est.RTTSamples, est.RTTTicks)
	}
}

func TestPredictSkewExtrapolatesDrift(t *testing.T) {
	e := New(nil)
	// skew = at/100 with samples at 0..1900: median 9.5 ticks at
	// mean x = 950; at tick 3000 the line predicts ~30 ticks.
	for i := 0; i < 20; i++ {
		at := int64(100 * i)
		e.Observe([]obs.Event{applyEvent(uint64(i+1), "R1", at, at/100)})
	}
	pred, ok := e.PredictSkew("R1", 3000)
	if !ok {
		t.Fatal("no prediction for R1")
	}
	// Centered extrapolation: 9500 + 10*(3000-950) = 30000 mticks,
	// plus the quantization jitter of the window (500 mticks).
	if pred < 29_000 || pred > 32_000 {
		t.Errorf("predicted skew at tick 3000 = %d mticks, want ~30500", pred)
	}
	if _, ok := e.PredictSkew("R9", 3000); ok {
		t.Error("prediction for an unseen switch must report ok=false")
	}
}

func TestTicksToViolation(t *testing.T) {
	e := New(nil)
	for i := 0; i < 20; i++ {
		at := int64(100 * i)
		e.Observe([]obs.Event{applyEvent(uint64(i+1), "R1", at, at/100)})
	}
	// Slack 25 ticks from tick 2000: the line (skew ~= at/100) crosses
	// 25-ticks-minus-jitter around tick 2400.
	ttv := e.TicksToViolation("R1", 25, 2000)
	if ttv <= 0 || ttv > 600 {
		t.Errorf("ttv = %d ticks, want a positive crossing within ~600", ttv)
	}
	// Already past: zero.
	if got := e.TicksToViolation("R1", 5, 2000); got != 0 {
		t.Errorf("ttv with exhausted slack = %d, want 0", got)
	}
	// No drift: never.
	e2 := New(nil)
	for i := 0; i < 8; i++ {
		e2.Observe([]obs.Event{applyEvent(uint64(i+1), "R1", int64(100*i), 2)})
	}
	if got := e2.TicksToViolation("R1", 10, 5000); got != -1 {
		t.Errorf("driftless ttv = %d, want -1", got)
	}
}

func TestEstimatesSortedAndGaugesMirrored(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(reg)
	e.Observe([]obs.Event{
		applyEvent(1, "R2", 100, 4),
		applyEvent(2, "R1", 100, -3),
		applyEvent(3, "R10", 100, 0),
	})
	ests := e.Estimates()
	if len(ests) != 3 {
		t.Fatalf("estimates = %d switches, want 3", len(ests))
	}
	for i, want := range []string{"R1", "R10", "R2"} {
		if ests[i].Switch != want {
			t.Errorf("estimates[%d] = %s, want %s (ascending by name)", i, ests[i].Switch, want)
		}
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, want := range []string{
		`chronus_clock_offset_ticks{switch="R1"} -3`,
		`chronus_clock_offset_ticks{switch="R2"} 4`,
		`chronus_clock_jitter_ticks{switch="R10"} 0`,
		`chronus_clock_drift_ticks_per_ktick{switch="R1"} 0`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestEstimatorCursorAdvances(t *testing.T) {
	e := New(nil)
	e.Observe([]obs.Event{applyEvent(41, "R1", 10, 0)})
	if got := e.Cursor(); got != 41 {
		t.Errorf("cursor = %d, want 41", got)
	}
	// Nil estimator is a no-op observer.
	var nilEst *Estimator
	nilEst.Observe([]obs.Event{applyEvent(1, "R1", 10, 0)})
	if nilEst.Cursor() != 0 {
		t.Error("nil estimator cursor must be 0")
	}
	if _, ok := nilEst.Estimate("R1"); ok {
		t.Error("nil estimator must report no estimates")
	}
}
