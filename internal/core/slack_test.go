package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// bruteForceSlack is the reference ScheduleSlack: a full Validate of the
// whole schedule for every one-tick delay of every switch.
func bruteForceSlack(in *dynflow.Instance, s *dynflow.Schedule) []SwitchSlack {
	ids := make([]graph.NodeID, 0, len(s.Times))
	for v := range s.Times {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]SwitchSlack, 0, len(ids))
	if !dynflow.Validate(in, s).OK() {
		for _, v := range ids {
			out = append(out, SwitchSlack{V: v, Time: s.Times[v], Critical: true})
		}
		return out
	}
	horizon := autoMaxTicks(in)
	for _, v := range ids {
		slack := horizon
		trial := s.Clone()
		for d := dynflow.Tick(1); d <= horizon; d++ {
			trial.Times[v] = s.Times[v] + d
			if !dynflow.Validate(in, trial).OK() {
				slack = d - 1
				break
			}
		}
		out = append(out, SwitchSlack{V: v, Time: s.Times[v], Slack: slack, Critical: slack == 0})
	}
	return out
}

// TestScheduleSlackMatchesBruteForce: the incremental ScheduleSlack returns
// exactly the reference's slacks, on exact-greedy schedules of random
// instances, on the same schedules with a switch pushed later, and on
// violating schedules.
func TestScheduleSlackMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	compared := 0
	for k := 0; k < 40; k++ {
		in := topo.RandomInstance(rng, topo.DefaultRandomParams(4+rng.Intn(11)))
		res, err := Greedy(in, Options{Mode: ModeExact})
		if err != nil {
			continue
		}
		schedules := []*dynflow.Schedule{res.Schedule}
		if upd := in.UpdateSet(); len(upd) > 0 {
			late := res.Schedule.Clone()
			late.Times[upd[rng.Intn(len(upd))]] += dynflow.Tick(1 + rng.Intn(6))
			schedules = append(schedules, late)
			oneShot := dynflow.NewSchedule(0)
			for _, v := range upd {
				oneShot.Set(v, 0)
			}
			schedules = append(schedules, oneShot)
		}
		for _, s := range schedules {
			want := bruteForceSlack(in, s)
			if got := ScheduleSlack(in, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("instance %d, schedule %s:\n got %+v\nwant %+v", k, s.Format(in), got, want)
			}
			compared++
		}
	}
	if compared < 40 {
		t.Fatalf("only %d schedules compared; generator drifted", compared)
	}
}

func TestScheduleSlackFig1(t *testing.T) {
	in := topo.Fig1Example()
	res, err := Greedy(in, Options{Mode: ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	slacks := ScheduleSlack(in, res.Schedule)
	if len(slacks) != len(res.Schedule.Times) {
		t.Fatalf("got %d entries, want %d", len(slacks), len(res.Schedule.Times))
	}
	horizon := autoMaxTicks(in)
	anyCritical, anyLoose := false, false
	for i, s := range slacks {
		if i > 0 && slacks[i-1].V >= s.V {
			t.Fatalf("not sorted by NodeID: %+v", slacks)
		}
		if s.Time != res.Schedule.Times[s.V] {
			t.Errorf("switch %d: Time = %d, want %d", s.V, s.Time, res.Schedule.Times[s.V])
		}
		if s.Slack < 0 || s.Slack > horizon {
			t.Errorf("switch %d: slack %d outside [0, %d]", s.V, s.Slack, horizon)
		}
		if s.Critical != (s.Slack == 0) {
			t.Errorf("switch %d: Critical=%v but Slack=%d", s.V, s.Critical, s.Slack)
		}
		anyCritical = anyCritical || s.Critical
		anyLoose = anyLoose || s.Slack > 0

		// The certificate: delaying by Slack keeps the schedule clean,
		// delaying one more tick (when below the cap) breaks it.
		trial := res.Schedule.Clone()
		trial.Times[s.V] = s.Time + s.Slack
		if !dynflow.Validate(in, trial).OK() {
			t.Errorf("switch %d: delay by slack %d should still validate", s.V, s.Slack)
		}
		if s.Slack < horizon {
			trial.Times[s.V] = s.Time + s.Slack + 1
			if dynflow.Validate(in, trial).OK() {
				t.Errorf("switch %d: delay by slack+1 = %d should violate", s.V, s.Slack+1)
			}
		}
	}
	if !anyCritical {
		t.Error("fig1 should have at least one zero-slack (critical) switch")
	}
	if !anyLoose {
		t.Error("fig1 should have at least one switch with positive slack")
	}
}

func TestScheduleSlackViolatingScheduleAllCritical(t *testing.T) {
	in := topo.Fig1Example()
	oneShot := dynflow.NewSchedule(0)
	for _, v := range in.UpdateSet() {
		oneShot.Set(v, 0)
	}
	if dynflow.Validate(in, oneShot).OK() {
		t.Fatal("fig1 one-shot should violate (precondition)")
	}
	for _, s := range ScheduleSlack(in, oneShot) {
		if !s.Critical || s.Slack != 0 {
			t.Errorf("switch %d: %+v, want zero-slack critical", s.V, s)
		}
	}
}
