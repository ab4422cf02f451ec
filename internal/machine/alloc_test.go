package machine_test

import (
	"runtime"
	"testing"

	"dynamo/internal/machine"
	"dynamo/internal/workload"
)

// TestRunAllocsPerEvent gates the simulation hot path's allocation rate on
// the 32-core Table II machine: requests, transactions, snoops and their
// continuations are long-lived or drawn from free lists, so a run's heap
// allocations grow with its working set (cache arrays, directory entries,
// memory pages), not with its event count.
func TestRunAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 32-thread workloads")
	}
	for _, tc := range []struct {
		name  string
		scale float64
	}{
		{"pagerank", 0.05},
		{"histogram", 0.25},
		{"barnes", 0.6}, // an L-class (lock-based, low-APKI) workload
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := workload.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := spec.Build(workload.Params{Threads: 32, Seed: 1, Scale: tc.scale})
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.DefaultConfig()
			cfg.Policy = "dynamo-reuse-pn"
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if inst.Setup != nil {
				inst.Setup(m.Sys.Data)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := m.Run(inst.Programs)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Validate(m.Sys.Data); err != nil {
				t.Fatal(err)
			}
			allocs := after.Mallocs - before.Mallocs
			perEvent := float64(allocs) / float64(res.SimEvents)
			t.Logf("%d allocations over %d events: %.3f allocs/event", allocs, res.SimEvents, perEvent)
			if res.SimEvents < 100_000 {
				t.Fatalf("only %d events: too short a run to measure the event path", res.SimEvents)
			}
			if perEvent >= 1.0 {
				t.Errorf("%.3f heap allocations per event, want < 1", perEvent)
			}
		})
	}
}
