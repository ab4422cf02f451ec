package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dynamo/internal/machine"
	"dynamo/internal/runner"
)

// layerUnits names every per-layer metric with its unit. Layers a
// workload bypasses (the client and fleet on the in-process workloads)
// report 0.
var layerUnits = map[string]string{
	"workload.build_ms":           "ms",
	"workload.validate_ms":        "ms",
	"machine.new_ms":              "ms",
	"machine.new_p50_ms":          "ms",
	"machine.new_allocs":          "count",
	"machine.run_ms":              "ms",
	"sim.events":                  "count",
	"sim.ns_per_event":            "ns",
	"sim.allocs_per_event":        "allocs/event",
	"sim.share.cpu":               "fraction",
	"sim.share.rn":                "fraction",
	"sim.share.hn":                "fraction",
	"sim.share.noc":               "fraction",
	"runner.digest_ms":            "ms",
	"runner.encode_ms":            "ms",
	"runner.dedupe_hits":          "count",
	"runner.requests":             "count",
	"runner.unattributed_ms":      "ms",
	"client.submit_rtt_ms":        "ms",
	"client.status_polls_per_job": "count",
	"client.result_rtt_ms":        "ms",
	"lease.grant_wait_p50_ms":     "ms",
	"lease.grant_wait_p90_ms":     "ms",
	"lease.rtt_ms":                "ms",
	"lease.empty_ratio":           "fraction",
	"lease.heartbeats":            "count",
	"lease.commit_rtt_ms":         "ms",
	"worker.exec_ms":              "ms",
	"fleet.result_lag_ms":         "ms",
	"fleet.overhead_ms":           "ms",
	"go.gc_cycles":                "count",
	"go.alloc_mb":                 "MB",
	"trace.overhead_ratio":        "ratio",
}

// layers derives the per-layer metrics: each traced sweep's values,
// reported as their median, plus the serial calibration counts and the
// traced/untraced wall-time ratio.
func (r *runResult) layers() map[string]metric {
	per := make(map[string][]float64)
	for i, tr := range r.tracers {
		s := r.sweeps[i+1]
		for k, v := range sweepLayers(s, tr.finish(), tr.kinds) {
			per[k] = append(per[k], v)
		}
		per["trace.overhead_ratio"] = append(per["trace.overhead_ratio"], s.wall.Seconds()/r.sweeps[0].wall.Seconds())
	}
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{median(per[name]), unit}
	}
	out["machine.new_allocs"] = metric{float64(r.calib.newAllocs), "count"}
	out["sim.allocs_per_event"] = metric{r.calib.allocsPerEvent, "allocs/event"}
	return out
}

// sweepLayers computes one traced sweep's per-layer values from its spans.
// Sums are per sweep; *_p50 / *_rtt / lag values are medians over jobs
// or calls.
func sweepLayers(s *sweepResult, spans []span, kinds map[string]float64) map[string]float64 {
	self := make(map[string]int64)
	durs := make(map[string][]float64)
	byTrace := make(map[string]map[string]span)
	empty := 0
	for _, sp := range spans {
		self[sp.Name] += sp.Self
		durs[sp.Name] = append(durs[sp.Name], float64(sp.dur())/1e6)
		if sp.Name == "lease.lease" && sp.Trace == "" {
			empty++
		}
		if sp.Trace != "" {
			if byTrace[sp.Trace] == nil {
				byTrace[sp.Trace] = make(map[string]span)
			}
			byTrace[sp.Trace][sp.Name] = sp
		}
	}
	ms := func(name string) float64 { return float64(self[name]) / 1e6 }
	sum := func(name string) float64 {
		t := 0.0
		for _, d := range durs[name] {
			t += d
		}
		return t
	}
	m := map[string]float64{
		"workload.build_ms":    ms("workload.build"),
		"workload.validate_ms": ms("workload.validate"),
		"machine.new_ms":       ms("machine.new"),
		"machine.new_p50_ms":   percentile(durs["machine.new"], 50),
		"machine.run_ms":       ms("machine.run"),
		"sim.events":           float64(s.stats.SimEvents),
		"runner.digest_ms":     ms("runner.digest"),
		"runner.encode_ms":     ms("runner.encode"),
		"runner.dedupe_hits":   float64(s.stats.Hits),
		"runner.requests":      float64(s.stats.Requests),
		"runner.unattributed_ms": float64(slots)*float64(s.wall)/1e6 -
			sum("exec") - sum("client.execute"),
		"client.submit_rtt_ms": percentile(durs["client.submit"], 50),
		"client.result_rtt_ms": percentile(durs["client.result"], 50),
		"lease.rtt_ms":         percentile(durs["lease.lease"], 50),
		"lease.heartbeats":     float64(len(durs["lease.heartbeat"])),
		"lease.commit_rtt_ms":  percentile(durs["lease.commit"], 50),
		"worker.exec_ms":       sum("worker.exec"),
		"go.gc_cycles":         float64(s.gcCycles),
		"go.alloc_mb":          float64(s.allocBytes) / (1 << 20),
	}
	if s.stats.SimEvents > 0 {
		m["sim.ns_per_event"] = float64(self["machine.run"]) / float64(s.stats.SimEvents)
	}
	if jobs := len(s.seam); jobs > 0 {
		m["client.status_polls_per_job"] = float64(len(durs["client.status"])) / float64(jobs)
	}
	if n := len(durs["lease.lease"]); n > 0 {
		m["lease.empty_ratio"] = float64(empty) / float64(n)
	}
	total := 0.0
	for _, ns := range kinds {
		total += ns
	}
	if total > 0 {
		for _, k := range []string{"cpu", "rn", "hn", "noc"} {
			m["sim.share."+k] = kinds[k] / total
		}
	}
	var grant, lag, overhead []float64
	for _, job := range byTrace {
		root, ok := job["client.execute"]
		exec, ran := job["worker.exec"]
		if !ok || !ran {
			continue
		}
		grant = append(grant, float64(exec.Start-root.Start)/1e6)
		overhead = append(overhead, float64(root.dur()-exec.dur())/1e6)
		if c, ok := job["lease.commit"]; ok {
			lag = append(lag, float64(root.End-c.End)/1e6)
		}
	}
	m["lease.grant_wait_p50_ms"] = percentile(grant, 50)
	m["lease.grant_wait_p90_ms"] = percentile(grant, 90)
	m["fleet.result_lag_ms"] = percentile(lag, 50)
	m["fleet.overhead_ms"] = percentile(overhead, 50)
	return m
}

// calibration holds counts measured serially after the sweeps, with no
// other job running. A few allocations in a measured window depend on
// goroutine scheduling and on the runtime's state, so each count is
// measured several times.
type calibration struct {
	// newAllocs is the heap objects one default Table II machine.New
	// allocates: the most frequent of several measurements, which
	// repeats exactly.
	newAllocs uint64
	// allocsPerEvent is the self-profiler's heap objects per kernel event
	// over the event loop of the workload's calibration job: the least of
	// several measurements, which repeats to within about a percent.
	allocsPerEvent float64
}

// Measurements per calibration count.
const (
	newAllocsRepeats = 7
	eventRepeats     = 3
)

// calibrationJob picks the job whose event loop sim.allocs_per_event
// measures: the workload's histogram run under DynAMO-Reuse-PN.
func calibrationJob(jobs []jobResult) (runner.Request, error) {
	for _, j := range jobs {
		if j.req.Workload == "histogram" && j.req.Policy == "dynamo-reuse-pn" && j.req.Variant == "" && j.req.Input == "" {
			return j.req, nil
		}
	}
	return runner.Request{}, fmt.Errorf("no histogram/dynamo-reuse-pn job")
}

func calibrate(jobs []jobResult) (calibration, error) {
	q, err := calibrationJob(jobs)
	if err != nil {
		return calibration{}, err
	}
	c := calibration{allocsPerEvent: math.Inf(1)}
	counts := make(map[uint64]int)
	for i := 0; i < newAllocsRepeats; i++ {
		n, err := newAllocs()
		if err != nil {
			return c, err
		}
		counts[n]++
		if counts[n] > counts[c.newAllocs] || (counts[n] == counts[c.newAllocs] && n < c.newAllocs) {
			c.newAllocs = n
		}
	}
	for i := 0; i < eventRepeats; i++ {
		runtime.GC()
		var tr *tracer
		out, err := tr.execute(q, runner.ExecOptions{}, -1)
		if err != nil {
			return c, err
		}
		c.allocsPerEvent = min(c.allocsPerEvent, out.Result.HostPerf.AllocsPerEvent)
	}
	return c, nil
}

// newAllocs counts the heap objects machine.New allocates for the default
// Table II configuration.
func newAllocs() (uint64, error) {
	cfg := machine.DefaultConfig()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := machine.New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, err
	}
	runtime.KeepAlive(m)
	return after.Mallocs - before.Mallocs, nil
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
