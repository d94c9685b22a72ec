package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/platform"
)

// TestScheduleOnlineNoReleasesMatchesIndependent: with every release at
// zero the online entry point must build exactly the offline schedule.
// The second case has two spoliation victims with the same expected end;
// the higher-priority one (task 1) must be aborted in both modes.
func TestScheduleOnlineNoReleasesMatchesIndependent(t *testing.T) {
	tie1 := task(1, 10, 6)
	tie1.Priority = 5
	cases := []struct {
		name string
		in   platform.Instance
		pl   platform.Platform
	}{
		{"1+1", platform.Instance{task(0, 10, 1), task(1, 10, 2), task(2, 1, 5)}, platform.NewPlatform(1, 1)},
		{"equal-estEnd-victims", platform.Instance{task(0, 10, 6), tie1, task(2, 10, 1)}, platform.NewPlatform(2, 1)},
	}
	for _, c := range cases {
		var rel []ReleasedTask
		for _, tk := range c.in {
			rel = append(rel, ReleasedTask{Task: tk})
		}
		online, err := ScheduleOnline(rel, c.pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		offline, err := ScheduleIndependent(c.in, c.pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := online.Schedule.Validate(c.in, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(online.Schedule.Entries, offline.Schedule.Entries) {
			t.Errorf("%s: online schedule %+v != offline %+v with zero releases",
				c.name, online.Schedule.Entries, offline.Schedule.Entries)
		}
	}
}

func TestScheduleOnlineRespectsReleases(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	rel := []ReleasedTask{
		{Task: task(0, 5, 1), Release: 0},
		{Task: task(1, 5, 1), Release: 10},
	}
	res, err := ScheduleOnline(rel, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Schedule.Entries {
		if e.TaskID == 1 && e.Start < 10-1e-9 {
			t.Errorf("task 1 started at %v before its release 10", e.Start)
		}
	}
	// Task 0 on the GPU at [0,1]; task 1 arrives at 10 -> done at 11.
	if math.Abs(res.Makespan()-11) > 1e-9 {
		t.Errorf("makespan = %v, want 11", res.Makespan())
	}
}

func TestScheduleOnlineSpoliationAfterArrival(t *testing.T) {
	// The CPU grabs the only available task; a better candidate arrives
	// later for the GPU, which afterwards spoliates the CPU's task.
	pl := platform.NewPlatform(1, 1)
	rel := []ReleasedTask{
		{Task: task(0, 100, 10), Release: 0}, // CPU takes it at 0... GPU takes it (front)
		{Task: task(1, 100, 10), Release: 0}, // CPU takes this one
		{Task: task(2, 1, 1), Release: 5},    // keeps GPU busy briefly
	}
	res, err := ScheduleOnline(rel, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spoliations == 0 {
		t.Error("expected at least one spoliation")
	}
	if err := res.Schedule.Validate(platform.Instance{rel[0].Task, rel[1].Task, rel[2].Task}, nil); err != nil {
		t.Fatal(err)
	}
	// GPU: task0 [0,10], task2 [10,11], then spoliates task1 (CPU would
	// finish at 100): [11,21]. Makespan 21.
	if math.Abs(res.Makespan()-21) > 1e-9 {
		t.Errorf("makespan = %v, want 21", res.Makespan())
	}
}

func TestScheduleOnlineInvalid(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	if _, err := ScheduleOnline([]ReleasedTask{{Task: task(0, 1, 1), Release: -1}}, pl, Options{}); err == nil {
		t.Error("negative release accepted")
	}
	if _, err := ScheduleOnline([]ReleasedTask{{Task: task(0, -1, 1)}}, pl, Options{}); err == nil {
		t.Error("invalid task accepted")
	}
	if _, err := ScheduleOnline(nil, platform.Platform{}, Options{}); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestScheduleOnlineRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		pl := platform.NewPlatform(1+rng.Intn(3), 1+rng.Intn(2))
		T := 1 + rng.Intn(20)
		var rel []ReleasedTask
		var in platform.Instance
		for i := 0; i < T; i++ {
			tk := task(i, 0.1+rng.Float64()*10, 0.1+rng.Float64()*10)
			in = append(in, tk)
			rel = append(rel, ReleasedTask{Task: tk, Release: rng.Float64() * 20})
		}
		res, err := ScheduleOnline(rel, pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Starts respect releases.
		relByID := map[int]float64{}
		for _, r := range rel {
			relByID[r.Task.ID] = r.Release
		}
		abortCount := map[int]int{}
		for _, e := range res.Schedule.Entries {
			if e.Start < relByID[e.TaskID]-1e-9 {
				t.Fatalf("trial %d: task %d started %v before release %v", trial, e.TaskID, e.Start, relByID[e.TaskID])
			}
			if e.Aborted {
				abortCount[e.TaskID]++
			}
		}
		// Lemma 5 does not hold online (both classes may spoliate at
		// different epochs), but a single task still cannot ping-pong: a
		// spoliated task runs on its strictly faster class afterwards.
		for id, c := range abortCount {
			if c > 1 {
				t.Fatalf("trial %d: task %d aborted %d times", trial, id, c)
			}
		}
	}
}
