package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scheduleHash fingerprints every recorded run of s (task, worker, exact
// start and end bits, abort and spoliation marks) in trace order.
func scheduleHash(s *sim.Schedule) uint64 {
	h := fnv.New64a()
	for _, e := range s.Entries {
		fmt.Fprintf(h, "%d %d %x %x %t %t;", e.TaskID, e.Worker,
			math.Float64bits(e.Start), math.Float64bits(e.End), e.Aborted, e.Spoliation)
	}
	return h.Sum64()
}

// TestScheduleOnlineGolden pins ScheduleOnline on seeded random release
// sets (makespan, spoliation count and a fingerprint of the whole trace),
// with and without spoliation and the priority tie-break. Regenerate with
// -update after an intended change.
func TestScheduleOnlineGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var b strings.Builder
	for trial := 0; trial < 24; trial++ {
		pl := platform.NewPlatform(1+rng.Intn(6), 1+rng.Intn(3))
		n := 5 + rng.Intn(60)
		rel := make([]ReleasedTask, n)
		for i := range rel {
			tk := platform.Task{ID: i, CPUTime: 0.1 + rng.Float64()*10, GPUTime: 0.1 + rng.Float64()*10, Priority: float64(rng.Intn(4))}
			rel[i] = ReleasedTask{Task: tk, Release: rng.Float64() * 15}
		}
		opt := Options{DisableSpoliation: trial%4 == 3, UsePriorities: trial%2 == 1}
		res, err := ScheduleOnline(rel, pl, opt)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "trial=%d %d+%d tasks=%d nospol=%t prio=%t makespan=%.17g spoliations=%d hash=%016x\n",
			trial, pl.CPUs, pl.GPUs, n, opt.DisableSpoliation, opt.UsePriorities,
			res.Makespan(), res.Spoliations, scheduleHash(res.Schedule))
	}
	got := b.String()
	path := filepath.Join("testdata", "online.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("ScheduleOnline output drifted from %s:\n got\n%s want\n%s", path, got, want)
	}
}
