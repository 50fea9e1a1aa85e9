package core

import (
	"sort"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// SwitchSlack is the scheduling tolerance of one switch in a validated
// schedule: how many ticks its activation may slip before the schedule
// stops being congestion- and loop-free.
type SwitchSlack struct {
	// V is the switch.
	V graph.NodeID
	// Time is v's scheduled activation tick.
	Time dynflow.Tick
	// Slack is the largest delay d such that activating v at Time+d (all
	// other switches unchanged) still validates clean. It is capped at
	// the instance's scheduling horizon (autoMaxTicks); a switch whose
	// delay never broke the schedule within the horizon reports the cap.
	Slack dynflow.Tick
	// Critical marks zero-slack switches: any slip at all breaks one of
	// the invariants, so these gate the correctness of the makespan.
	Critical bool
}

// ScheduleSlack computes the per-switch slack of a schedule against the
// dynamic-flow validator: for each scheduled switch it delays that one
// activation a tick at a time until the schedule stops validating clean.
// It answers the operational question behind critical-path analysis —
// which switches must fire on time, and how much timing error the rest
// tolerate — and complements the event-based critical path the audit
// package derives from an execution trace.
//
// Each one-tick delay is checked by the incremental validator: moving v
// from Time+d to Time+d+1 changes only the units arriving at v at tick
// Time+d, so a step re-traces about one emission instead of the whole
// schedule. Its verdicts equal a full Validate's.
//
// Switches are returned in ascending NodeID order. The result is only
// meaningful for schedules that validate clean; for a violating schedule
// every switch reports zero slack.
func ScheduleSlack(in *dynflow.Instance, s *dynflow.Schedule) []SwitchSlack {
	ids := make([]graph.NodeID, 0, len(s.Times))
	for v := range s.Times {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]SwitchSlack, 0, len(ids))
	ws := getWorkspace(in.G.NumNodes())
	defer putWorkspace(ws)
	d := &ws.delta
	if !d.Reset(in, s) {
		for _, v := range ids {
			out = append(out, SwitchSlack{V: v, Time: s.Times[v], Critical: true})
		}
		return out
	}
	horizon := autoMaxTicks(in)
	for _, v := range ids {
		base := s.Times[v]
		slack := horizon
		for dt := dynflow.Tick(1); dt <= horizon; dt++ {
			if ok, _ := d.Try(v, base+dt); !ok {
				d.Rollback()
				slack = dt - 1
				break
			}
			d.Commit()
		}
		if slack > 0 {
			// Back to the clean base schedule for the next switch.
			d.Try(v, base)
			d.Commit()
		}
		out = append(out, SwitchSlack{V: v, Time: base, Slack: slack, Critical: slack == 0})
	}
	return out
}
