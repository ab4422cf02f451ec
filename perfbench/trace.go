package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynamo/internal/chaos"
	"dynamo/internal/check"
	"dynamo/internal/core"
	"dynamo/internal/machine"
	"dynamo/internal/obs"
	"dynamo/internal/obs/profile"
	"dynamo/internal/perf"
	"dynamo/internal/runner"
	"dynamo/internal/service"
	"dynamo/internal/workload"
)

// span is one timed call into a layer. Spans of one job share its digest
// as trace id; times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the time its child spans cover,
	// filled in by finish.
	Self int64 `json:"self_ns"`
	// Status is the HTTP status of a transport span.
	Status int `json:"status,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced sweep in memory. Every method is
// safe on a nil tracer, which records nothing but still performs the
// call, so the traced and untraced paths share their code.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	roots map[string]int // job digest -> its execute-seam span
	// kinds sums the self-profiler's per-kind event-loop time estimates
	// (ns) over every job.
	kinds map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: make(map[string]int), kinds: make(map[string]float64)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// begin opens the root span of a job's execute seam.
func (t *tracer) begin(name, trace string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Name: name, Trace: trace, Start: t.since(time.Now())})
	t.roots[trace] = id
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rootOf returns the execute-seam span of a job (-1 when none is open).
func (t *tracer) rootOf(trace string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.roots[trace]; ok {
		return id
	}
	return -1
}

// add records a finished span under parent and returns its id.
func (t *tracer) add(parent int, name, trace string, start, end time.Time, status int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace,
		Start: t.since(start), End: t.since(end), Status: status})
	return id
}

// addUnder records a finished span under the execute seam of its job.
func (t *tracer) addUnder(name, trace string, start, end time.Time, status int) {
	if t == nil {
		return
	}
	t.add(t.rootOf(trace), name, trace, start, end, status)
}

// digestAll computes every request's digest through runner.Request.Digest,
// as one "runner.digest" span over the whole stream.
func (t *tracer) digestAll(reqs []runner.Request) []string {
	start := time.Now()
	out := make([]string, len(reqs))
	for i, q := range reqs {
		out[i] = q.Digest()
	}
	t.add(-1, "runner.digest", "", start, time.Now(), 0)
	return out
}

// encodeHash renders a job's canonical cache entry through
// runner.EncodeEntry (a "runner.encode" span) and hashes it.
func (t *tracer) encodeHash(q runner.Request, digest string, out *runner.Outcome) (string, error) {
	start := time.Now()
	entry, err := runner.EncodeEntry(q, out, 0)
	t.add(-1, "runner.encode", digest, start, time.Now(), 0)
	if err != nil {
		return "", err
	}
	return resultHash(entry), nil
}

// workerExec is the fleet worker's Execute seam: a "worker.exec" span
// under the client's execute span, around the traced job steps.
func (t *tracer) workerExec(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
	digest := q.Digest()
	start := time.Now()
	id := t.add(t.rootOf(digest), "worker.exec", digest, start, start, 0)
	out, err := t.execute(q, x, id)
	t.end(id)
	return out, err
}

// execute performs one job through the public calls runner.ExecuteLocal
// makes, in its order — workload build, machine construction, setup, run,
// validation — with a span around each, and the host self-profiler
// attached for the event-loop attribution. The sweep compares its result
// with the untraced sweep's, so the traced path is checked to be the same
// computation.
func (t *tracer) execute(q runner.Request, x runner.ExecOptions, parent int) (*runner.Outcome, error) {
	digest := q.Digest()
	cfg := machine.DefaultConfig()
	if err := runner.ApplyVariant(q.Variant, &cfg); err != nil {
		return nil, err
	}
	if q.Check {
		cfg.Check = &check.Config{}
	}
	cfg.Interrupt = x.Interrupt
	cfg.Perf = perf.New(0)
	var bus *obs.Bus
	var prof *profile.Profiler
	if q.Observe || q.ProfileTopK > 0 {
		bus = obs.New(obs.Options{})
		cfg.Obs = bus
	}
	if q.ProfileTopK > 0 {
		prof = profile.NewProfiler(q.ProfileTopK)
		bus.AttachContention(prof)
	}

	start := time.Now()
	inst, err := buildWorkload(q)
	t.add(parent, "workload.build", digest, start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		for _, site := range inst.Sites {
			bus.RegisterSite(site)
		}
	}
	start = time.Now()
	m, err := newMachine(q, cfg)
	t.add(parent, "machine.new", digest, start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	if q.ChaosLevel > 0 {
		inj, err := chaos.New(q.ChaosSeed, q.ChaosLevel)
		if err != nil {
			return nil, err
		}
		inj.Attach(m)
	}
	if inst.Setup != nil {
		start = time.Now()
		inst.Setup(m.Sys.Data)
		t.add(parent, "workload.setup", digest, start, time.Now(), 0)
	}
	start = time.Now()
	res, err := m.Run(inst.Programs)
	t.add(parent, "machine.run", digest, start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	err = inst.Validate(m.Sys.Data)
	t.add(parent, "workload.validate", digest, start, time.Now(), 0)
	if err != nil {
		return nil, fmt.Errorf("validation: %w", err)
	}
	t.addPerf(res.HostPerf)
	out := &runner.Outcome{Result: res}
	if prof != nil {
		out.Hot = prof.Report(bus.SiteOf)
	}
	return out, nil
}

// buildWorkload builds a request's workload instance
// (workload.(*Spec).Build, or workload.Counter for Fig. 1 requests).
func buildWorkload(q runner.Request) (*workload.Instance, error) {
	if q.Counter != nil {
		return workload.Counter(q.Threads, q.Counter.Ops, q.Counter.NoReturn, q.Counter.Cells)
	}
	spec, err := workload.Get(q.Workload)
	if err != nil {
		return nil, err
	}
	return spec.Build(workload.Params{Threads: q.Threads, Seed: q.Seed, Scale: q.Scale, Input: q.Input})
}

// newMachine constructs the request's machine: machine.New for a named
// policy, machine.NewWithPolicy for a design-space candidate.
func newMachine(q runner.Request, cfg machine.Config) (*machine.Machine, error) {
	if q.DSE == "" {
		cfg.Policy = q.Policy
		return machine.New(cfg)
	}
	for _, p := range core.PracticalDesignSpace() {
		if core.DecisionString(p) == q.DSE {
			return machine.NewWithPolicy(cfg, p)
		}
	}
	return nil, fmt.Errorf("unknown design-space policy %q", q.DSE)
}

// addPerf accumulates a job's per-kind event-loop attribution.
func (t *tracer) addPerf(r *perf.Report) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range r.Kinds {
		t.kinds[k.Kind] += k.EstNS
	}
}

// finish fills every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		t.spans[i].Self = selfTime(t.spans[i], children[t.spans[i].ID])
	}
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of it its children cover
// (overlapping children count once).
func selfTime(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered := int64(0)
	cur, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > cur {
				covered += curEnd - cur
			}
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > cur {
		covered += curEnd - cur
	}
	return s.dur() - covered
}

// clientTransport times the sweep client's HTTP calls (submit, status
// poll, result fetch) as spans under each job's execute-seam span.
type clientTransport struct {
	tr *tracer

	mu     sync.Mutex
	sweeps map[string]string // sweep id -> job digest
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := readBody(resp)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	path := req.URL.Path
	var name, trace string
	switch {
	case req.Method == http.MethodPost && path == "/v1/sweeps":
		name = "client.submit"
		var st service.SweepStatus
		if json.Unmarshal(body, &st) == nil && len(st.Jobs) == 1 {
			trace = st.Jobs[0].Digest
			c.mu.Lock()
			if c.sweeps == nil {
				c.sweeps = make(map[string]string)
			}
			c.sweeps[st.ID] = trace
			c.mu.Unlock()
		}
	case req.Method == http.MethodGet && strings.HasPrefix(path, "/v1/sweeps/"):
		name = "client.status"
		c.mu.Lock()
		trace = c.sweeps[strings.TrimPrefix(path, "/v1/sweeps/")]
		c.mu.Unlock()
	case req.Method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/"):
		name = "client.result"
		trace = strings.TrimPrefix(path, "/v1/jobs/")
	default:
		name = "client.other"
	}
	c.tr.addUnder(name, trace, start, end, resp.StatusCode)
	return resp, nil
}

// workerTransport is a fleet worker's HTTP transport. It counts the
// worker's lease calls (setup waits for the first) and, when traced,
// times lease, heartbeat and commit round trips as spans.
type workerTransport struct {
	polled *atomic.Int64
	tr     *tracer
}

func (w *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	lease := path == "/v1/work/lease"
	if lease {
		defer w.polled.Add(1)
	}
	if w.tr == nil {
		return http.DefaultTransport.RoundTrip(req)
	}
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := readBody(resp)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	var name, trace string
	switch {
	case lease:
		name = "lease.lease"
		var g service.LeaseGrant
		if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &g) == nil {
			trace = g.Digest
		}
	case strings.HasSuffix(path, "/heartbeat"):
		name = "lease.heartbeat"
		trace = strings.TrimSuffix(strings.TrimPrefix(path, "/v1/work/"), "/heartbeat")
	case strings.HasSuffix(path, "/result"):
		name = "lease.commit"
		trace = strings.TrimSuffix(strings.TrimPrefix(path, "/v1/work/"), "/result")
	default:
		name = "lease.other"
	}
	w.tr.addUnder(name, trace, start, end, resp.StatusCode)
	return resp, nil
}

// readBody reads a response body in full and replaces it with an
// in-memory copy the caller can still read.
func readBody(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return body, nil
}
