// Command perfbench is the sweep benchmark: it runs one named workload as
// cold sweeps through the runner's and the sweep service's public Go
// entry points, checks every result, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced sweep). The
// last line of standard output is one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// setupSamples is how many extra times a run sets its workload up (and
// tears it down) before its first sweep and after each sweep; setup_s is
// the median of these and the sweeps' own set-ups. Spreading the samples
// over the run makes the median reflect the host over the whole run
// rather than one moment of it.
const setupSamples = 17

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: quick-cold, table2-full or fleet-remote")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 40, "run whole sweeps for as long as they fit in this many seconds")
	trace := flag.Int("trace", 0, "1: one untraced sweep, then traced sweeps; report per-layer metrics")
	writeRef := flag.Bool("write-reference", false, "record this run's result hashes as the reference for its workload and seed")
	flag.Parse()
	// run.sh starts the benchmark at the repository root.
	const root = "."
	w, err := findWorkload(*name)
	if err != nil || *seed == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		flag.Usage()
		return 2
	}
	r, err := measure(w, root, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *writeRef {
		refs, err := loadReferences(root)
		if err == nil {
			err = refs.record(root, w.name, *seed, r.sweeps[0].jobs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing reference:", err)
			return 1
		}
	}
	rep := r.report(root)
	if err := rep.write(root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(os.Stdout)
	return 0
}

// runResult is everything one run measured.
type runResult struct {
	w       workloadDef
	seed    int64
	seconds time.Duration
	traced  bool
	// dir holds the run's cache directories, one per setup.
	dir string
	// sweeps lists every sweep in order; when traced, the first is the
	// untraced baseline and the rest carry tracers.
	sweeps  []*sweepResult
	tracers []*tracer
	setups  []time.Duration
	// attempted and failed count distinct jobs over all sweeps.
	attempted, failed int
	problems          []string
	calib             calibration
	peakRSS           float64 // MB
}

// measure runs whole cold sweeps, checking each, for as long as they fit
// in the time budget: at least one, and when traced at least one traced
// sweep after the untraced one.
func measure(w workloadDef, root string, seed int64, budget time.Duration, traced bool) (*runResult, error) {
	refs, err := loadReferences(root)
	if err != nil {
		return nil, err
	}
	want, err := refs.expected(w, root, seed)
	if err != nil {
		return nil, err
	}
	var fig8 map[string]string
	if w.name == "table2-full" && seed == 1 {
		if fig8, err = fig8Expected(root); err != nil {
			return nil, err
		}
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runResult{w: w, seed: seed, seconds: budget, traced: traced, dir: dir}
	if err := r.sampleSetups(root); err != nil {
		return nil, err
	}
	start := time.Now()
	var slowest time.Duration
	for i := 0; ; i++ {
		began := time.Now()
		var tr *tracer
		if traced && i > 0 {
			tr = newTracer()
		}
		runtime.GC()
		e, err := r.setup(root, tr)
		if err != nil {
			return nil, err
		}
		res := e.sweep()
		e.close()
		r.check(res, want, fig8)
		// Only the hashes are needed from here on; dropping the outcomes
		// keeps earlier sweeps from inflating later sweeps' memory.
		for i := range res.jobs {
			res.jobs[i].out = nil
		}
		r.sweeps = append(r.sweeps, res)
		if tr != nil {
			r.tracers = append(r.tracers, tr)
		}
		if err := r.sampleSetups(root); err != nil {
			return nil, err
		}
		// Another sweep runs only if, taking as long as the slowest so far
		// with some margin, it still ends within the budget, so a run's
		// length stays bounded on a slow host.
		slowest = max(slowest, time.Since(began))
		if time.Since(start)+slowest*23/20 > budget && (!traced || len(r.tracers) > 0) {
			break
		}
	}
	r.peakRSS = peakRSSMB()
	if traced {
		if r.calib, err = calibrate(r.sweeps[0].jobs); err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
	}
	return r, nil
}

// setup makes the workload ready and records how long that took.
func (r *runResult) setup(root string, tr *tracer) (*env, error) {
	start := time.Now()
	e, err := setup(r.w, root, filepath.Join(r.dir, strconv.Itoa(len(r.setups))), r.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.setups = append(r.setups, time.Since(start))
	return e, nil
}

// sampleSetups sets the workload up and tears it down setupSamples
// times, starting from a collected heap so that garbage from an earlier
// sweep is not charged to them.
func (r *runResult) sampleSetups(root string) error {
	runtime.GC()
	for i := 0; i < setupSamples; i++ {
		e, err := r.setup(root, nil)
		if err != nil {
			return err
		}
		e.close()
	}
	return nil
}

// check counts a sweep's failed jobs: a job fails if it errored (which
// includes failing its workload's functional validation), if its result
// differs from the committed reference for the seed or from the run's
// first sweep, or if its Figure 8 row disagrees with the committed suite
// output.
func (r *runResult) check(res *sweepResult, want map[string]string, fig8 map[string]string) {
	var bad map[string]bool
	if fig8 != nil {
		var problems []string
		bad, problems = fig8Check(fig8, res.jobs)
		r.problems = append(r.problems, problems...)
		if len(bad) == 0 && len(problems) > 0 {
			// A geomean row alone disagrees: the sweep as a whole is wrong.
			r.failed++
		}
	}
	var first map[string]string
	if len(r.sweeps) > 0 {
		first = make(map[string]string)
		for _, j := range r.sweeps[0].jobs {
			first[j.digest] = j.hash
		}
	}
	for _, j := range res.jobs {
		r.attempted++
		var why string
		switch {
		case j.err != nil:
			why = j.err.Error()
		case want != nil && want[j.digest] != j.hash:
			why = fmt.Sprintf("result %s, reference %s", j.hash, want[j.digest])
		case first != nil && first[j.digest] != j.hash:
			why = fmt.Sprintf("result %s, first sweep %s", j.hash, first[j.digest])
		case bad[j.digest]:
			why = "Figure 8 row differs from the committed output"
		default:
			continue
		}
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %s", j.req, why))
	}
	if len(r.sweeps) > 0 && len(res.jobs) != len(r.sweeps[0].jobs) {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("sweep has %d distinct jobs, first sweep %d", len(res.jobs), len(r.sweeps[0].jobs)))
	}
}

// report is one run's written and printed result.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      hostInfo `json:"host"`
	Commit    string   `json:"commit"`
	SourceSHA string   `json:"source_sha256"`
	// Sweeps counts the sweeps measured; Requests and Jobs size one sweep.
	Sweeps   int `json:"sweeps"`
	Requests int `json:"requests"`
	Jobs     int `json:"jobs"`
	// TailPercentile is the percentile job_tail_ms reports: the highest
	// with at least ten of a sweep's TailSamples job times beyond it. It
	// is taken over the PooledSamples job times of all untraced sweeps.
	TailPercentile float64   `json:"tail_percentile"`
	TailSamples    int       `json:"tail_samples"`
	PooledSamples  int       `json:"pooled_samples"`
	SweepWallS     []float64 `json:"sweep_wall_s"`
	SetupS         []float64 `json:"setup_s"`
	Correct        bool      `json:"correct"`
	Attempted      int       `json:"attempted"`
	Failed         int       `json:"failed"`
	FailedFrac     float64   `json:"failed_frac"`
	Problems       []string  `json:"problems,omitempty"`
	// EndToEnd always holds the untraced metrics; Layers the per-layer
	// metrics of a traced run.
	EndToEnd map[string]metric `json:"end_to_end"`
	Layers   map[string]metric `json:"per_layer,omitempty"`

	spans [][]span
}

func (r *runResult) report(root string) *report {
	rep := &report{
		Workload:  r.w.name,
		Seed:      r.seed,
		Seconds:   r.seconds.Seconds(),
		Trace:     r.traced,
		Host:      fingerprint(),
		Sweeps:    len(r.sweeps),
		Requests:  int(r.sweeps[0].stats.Requests),
		Jobs:      len(r.sweeps[0].jobs),
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Problems:  r.problems,
	}
	rep.Commit, rep.SourceSHA = commitOf(), sourceDigest(root)
	rep.FailedFrac = float64(r.failed) / float64(r.attempted)
	untraced := r.sweeps
	if r.traced {
		untraced = r.sweeps[:1]
	}
	rep.TailSamples = len(untraced[0].seam)
	rep.TailPercentile = tailPercentile(rep.TailSamples)
	for _, s := range untraced {
		rep.PooledSamples += len(s.seam)
	}
	for _, s := range r.sweeps {
		rep.SweepWallS = append(rep.SweepWallS, s.wall.Seconds())
	}
	for _, d := range r.setups {
		rep.SetupS = append(rep.SetupS, d.Seconds())
	}
	rep.EndToEnd = endToEnd(untraced, r.setups, rep.TailPercentile, r.peakRSS)
	if r.traced {
		rep.Layers = r.layers()
		for _, tr := range r.tracers {
			rep.spans = append(rep.spans, tr.finish())
		}
	}
	return rep
}

// endToEnd derives the end-to-end metrics: throughputs per sweep,
// reported as their median over the run's sweeps, and job-time
// percentiles over the job times of all the run's sweeps.
func endToEnd(sweeps []*sweepResult, setups []time.Duration, tail, rssMB float64) map[string]metric {
	var jobs, events, times []float64
	for _, s := range sweeps {
		wall := s.wall.Seconds()
		jobs = append(jobs, float64(s.stats.Misses)/wall)
		events = append(events, float64(s.stats.SimEvents)/wall)
		times = append(times, millis(s.seam)...)
	}
	var setup []float64
	for _, d := range setups {
		setup = append(setup, d.Seconds())
	}
	return map[string]metric{
		"setup_s":      {median(setup), "s"},
		"jobs_per_s":   {median(jobs), "1/s"},
		"events_per_s": {median(events), "1/s"},
		"job_p50_ms":   {percentile(times, 50), "ms"},
		"job_tail_ms":  {percentile(times, tail), "ms"},
		"peak_rss_mb":  {rssMB, "MB"},
	}
}

// write stores the report (and, when traced, the spans) under
// perfbench/out.
func (rep *report) write(root string) error {
	dir := filepath.Join(root, "perfbench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, btoi(rep.Trace)))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rep.spans == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, spans := range rep.spans {
		for _, s := range spans {
			if err := enc.Encode(struct {
				Sweep int `json:"sweep"`
				span
			}{i + 1, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// print writes the human-readable summary, then the JSON result line.
func (rep *report) print(f *os.File) {
	fmt.Fprintf(f, "perfbench %s seed %d: %d sweep(s) of %d requests -> %d jobs; %s, GOMAXPROCS %d, %s\n",
		rep.Workload, rep.Seed, rep.Sweeps, rep.Requests, rep.Jobs, rep.Host.CPUModel, rep.Host.GOMAXPROCS, rep.Host.GoVersion)
	fmt.Fprintf(f, "  job_tail_ms is p%g (chosen for %d jobs per sweep) of %d job times from the untraced sweeps\n",
		rep.TailPercentile, rep.TailSamples, rep.PooledSamples)
	fmt.Fprintf(f, "  failed_frac %g fraction (%d of %d jobs failed)\n", rep.FailedFrac, rep.Failed, rep.Attempted)
	for i, p := range rep.Problems {
		if i == 10 {
			fmt.Fprintf(f, "  ... %d more problems\n", len(rep.Problems)-i)
			break
		}
		fmt.Fprintf(f, "  problem: %s\n", p)
	}
	metrics := rep.EndToEnd
	if rep.Trace {
		printMetrics(f, "end-to-end (untraced sweep)", rep.EndToEnd)
		metrics = rep.Layers
	}
	printMetrics(f, "metrics", metrics)
	line, _ := json.Marshal(output{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metrics})
	fmt.Fprintln(f, string(line))
}

func printMetrics(f *os.File, title string, m map[string]metric) {
	fmt.Fprintf(f, "  %s:\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "    %-26s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
