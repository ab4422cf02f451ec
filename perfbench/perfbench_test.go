package main

import (
	"path/filepath"
	"testing"

	"dynamo/internal/runner"
)

const root = ".."

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{503: 95, 42: 75, 168: 90, 1000: 99, 10000: 99.9, 5: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: counted once
		{Start: 90, End: 120}, // clipped to the parent
	}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Errorf("self time = %d, want 60", got)
	}
}

// TestStreams pins the shape of each workload's request stream.
func TestStreams(t *testing.T) {
	count := func(name string) ([]runner.Request, []string) {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := w.requests(root, 1)
		if err != nil {
			t.Fatal(err)
		}
		return reqs, distinctDigests(reqs)
	}
	quick, quickJobs := count("quick-cold")
	if len(quick) != 1823 || len(quickJobs) != 503 {
		t.Errorf("quick-cold: %d requests -> %d jobs, want 1823 -> 503", len(quick), len(quickJobs))
	}
	if _, jobs := count("table2-full"); len(jobs) != 42 {
		t.Errorf("table2-full: %d jobs, want 42", len(jobs))
	}
	fleet, fleetJobs := count("fleet-remote")
	if len(fleet) != 168 || len(fleetJobs) != 168 {
		t.Errorf("fleet-remote: %d requests -> %d jobs, want 168 -> 168", len(fleet), len(fleetJobs))
	}
	inQuick := make(map[string]bool)
	for _, d := range quickJobs {
		inQuick[d] = true
	}
	for i, d := range fleetJobs {
		if !inQuick[d] {
			t.Errorf("fleet-remote job %s is not a quick-cold job", fleet[i])
		}
	}
	refs, err := loadReferences(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"quick-cold", "table2-full", "fleet-remote"} {
		w, _ := findWorkload(name)
		for _, seed := range []int64{1, 7} {
			if want, err := refs.expected(w, root, seed); err != nil || want == nil {
				t.Errorf("%s seed %d: no reference (%v)", name, seed, err)
			}
		}
	}
}

func TestFig8Expected(t *testing.T) {
	want, err := fig8Expected(root)
	if err != nil {
		t.Fatal(err)
	}
	for row, v := range map[string]string{"histogram": "1.406", "spmv": "1.512", "kcore": "1.223", "spt": "0.979", "geomean-H": "1.224"} {
		if want[row] != v {
			t.Errorf("fig8 %s = %q, want %q", row, want[row], v)
		}
	}
	if len(want) != 24 {
		t.Errorf("fig8 has %d rows, want 21 workloads + 3 geomeans", len(want))
	}
}

// subset is a workload running the first n requests of another.
func subset(t *testing.T, name string, n int) workloadDef {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	full := w.requests
	w.requests = func(root string, seed int64) ([]runner.Request, error) {
		reqs, err := full(root, seed)
		if len(reqs) > n {
			reqs = reqs[:n]
		}
		return reqs, err
	}
	return w
}

// counters are the exact counts a run reports.
type counters struct {
	events, hits, requests uint64
	hashes                 string
}

func exactCounters(t *testing.T, w workloadDef, traced bool) (counters, map[string]float64) {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	e, err := setup(w, root, filepath.Join(t.TempDir(), "cache"), 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := e.sweep()
	e.close()
	c := counters{events: res.stats.SimEvents, hits: res.stats.Hits, requests: res.stats.Requests}
	for _, j := range res.jobs {
		if j.err != nil {
			t.Fatalf("%s: %v", j.req, j.err)
		}
		c.hashes += j.hash
	}
	var layers map[string]float64
	if tr != nil {
		layers = sweepLayers(res, tr.finish(), tr.kinds)
	}
	return c, layers
}

// TestExactCountersRepeat runs a slice of the quick-cold stream twice,
// untraced and traced, and checks that the exact counters and every
// result hash repeat, and that the calibration counts repeat.
func TestExactCountersRepeat(t *testing.T) {
	w := subset(t, "quick-cold", 150)
	a, _ := exactCounters(t, w, false)
	b, layers := exactCounters(t, w, true)
	if a != b {
		t.Errorf("counters differ between runs:\n%+v\n%+v", a, b)
	}
	if a.events == 0 || a.hits == 0 || a.requests != 150 {
		t.Errorf("implausible counters %+v", a)
	}
	if layers["sim.events"] != float64(a.events) || layers["runner.dedupe_hits"] != float64(a.hits) {
		t.Errorf("traced layers report %v events / %v hits, want %d / %d",
			layers["sim.events"], layers["runner.dedupe_hits"], a.events, a.hits)
	}
	for _, k := range []string{"lease.rtt_ms", "lease.grant_wait_p50_ms", "fleet.overhead_ms", "client.submit_rtt_ms"} {
		if layers[k] != 0 {
			t.Errorf("in-process sweep reports %s = %v, want 0", k, layers[k])
		}
	}
	jobs := []jobResult{{req: runner.Request{Workload: "histogram", Policy: "dynamo-reuse-pn", Threads: quickThreads, Seed: 1, Scale: quickScale}}}
	c1, err := calibrate(jobs)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := calibrate(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if c1.newAllocs != c2.newAllocs || c1.newAllocs == 0 {
		t.Errorf("machine.new_allocs does not repeat: %d vs %d", c1.newAllocs, c2.newAllocs)
	}
	if d := c1.allocsPerEvent/c2.allocsPerEvent - 1; c1.allocsPerEvent == 0 || d > 0.02 || d < -0.02 {
		t.Errorf("sim.allocs_per_event does not repeat: %g vs %g", c1.allocsPerEvent, c2.allocsPerEvent)
	}
}

// TestFleetMatchesLocal sends a few fleet-remote jobs through the served
// path, traced, and checks that the results equal the committed
// quick-cold references and that the control-plane layers are measured.
func TestFleetMatchesLocal(t *testing.T) {
	w := subset(t, "fleet-remote", 6)
	refs, err := loadReferences(root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refs.expected(w, root, 1)
	if err != nil || want == nil {
		t.Fatalf("no reference: %v", err)
	}
	tr := newTracer()
	e, err := setup(w, root, filepath.Join(t.TempDir(), "cache"), 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := e.sweep()
	e.close()
	for _, j := range res.jobs {
		if j.err != nil || j.hash != want[j.digest] {
			t.Errorf("%s: result %s (err %v), quick-cold reference %s", j.req, j.hash, j.err, want[j.digest])
		}
	}
	layers := sweepLayers(res, tr.finish(), tr.kinds)
	for _, k := range []string{"lease.rtt_ms", "lease.grant_wait_p50_ms", "lease.commit_rtt_ms", "fleet.overhead_ms", "client.submit_rtt_ms", "worker.exec_ms", "machine.run_ms"} {
		if layers[k] <= 0 {
			t.Errorf("fleet sweep reports %s = %v, want > 0", k, layers[k])
		}
	}
}
