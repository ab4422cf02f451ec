package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynamo/internal/faultio"
	"dynamo/internal/machine"
	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
)

// ErrNotFound marks a sweep id or job digest the service does not know.
var ErrNotFound = errors.New("service: not found")

// ErrDraining rejects submissions while the service is shutting down.
var ErrDraining = errors.New("service: draining, not accepting sweeps")

// ErrEmptySweep rejects a submission with no requests.
var ErrEmptySweep = errors.New("service: a sweep needs at least one request")

// ErrOverloaded rejects a submission the bounded admission queue cannot
// hold (HTTP 429 on the wire, kind "overloaded"). Backpressure, not
// failure: the client's jittered backoff retries it.
var ErrOverloaded = errors.New("service: overloaded, admission queue full")

// Options configures a Service.
type Options struct {
	// CacheDir is the content-addressed result store the service serves
	// from and persists sweeps under (required: a service without a cache
	// has nothing durable to serve).
	CacheDir string
	// Jobs bounds concurrently executing simulations (default GOMAXPROCS).
	Jobs int
	// Retries, CkptEvery: see runner.Options.
	Retries   int
	CkptEvery uint64
	// Resume reloads persisted sweeps from CacheDir/sweeps and restores
	// interrupted jobs from their checkpoints.
	Resume bool
	// Telemetry, when non-nil, is the caller's surface; otherwise the
	// service creates (and closes) a journal-less one.
	Telemetry *telemetry.Sweep
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// MaxQueued bounds admitted-but-unfinished jobs across live sweeps —
	// the admission queue. A submission that would push past it is
	// rejected with ErrOverloaded before any of its jobs are admitted
	// (all-or-nothing, like validation). Zero means unbounded.
	MaxQueued int
	// Preempt enables checkpoint-based time-slicing: when the pool is
	// full and some live sweep is starved (queued work, nothing running),
	// one running job from the best-fed sweep is cancelled — it stops at
	// its next checkpoint boundary — and re-queued, and later resumes from
	// its persisted checkpoint (Preempt implies the runner's Resume).
	// Requires CkptEvery > 0 to preserve progress; without it a preempted
	// job restarts from event zero.
	Preempt bool
	// PreemptSlice is the minimum time a job runs before it may be
	// preempted (default 500ms). A floor, not a quantum: preemption only
	// triggers on starvation, and the floor keeps rapid re-preemption
	// from eating a resumed job's replay time.
	PreemptSlice time.Duration
	// FS replaces the file plane beneath the sweep documents and the
	// runner's cache (fault injection); nil selects the real filesystem.
	FS faultio.FS
	// Workers switches execution from in-process to the worker fleet:
	// jobs park in a lease table and external dynamo-worker processes
	// pull them through the /v1/work routes under TTL leases. Scheduling,
	// dedupe, retries, cancellation and preemption are unchanged — only
	// the simulation itself moves off-process.
	Workers bool
	// LeaseTTL bounds how long a worker may go without heartbeating
	// before its lease is revoked and the job requeued (default 10s).
	// Only meaningful with Workers.
	LeaseTTL time.Duration
}

// job is one distinct request inside a sweep. Requests in a batch that
// normalize to the same digest share one job.
type job struct {
	req    runner.Request
	digest string
	idx    int // position in sweepState.jobs, for cursor rewind
	state  string
	cached bool
	errMsg string
	// ctl is the cancellation control the job was last admitted under;
	// startedAt is when it was admitted (the preemption floor measures
	// from here).
	ctl       *jobCtl
	startedAt time.Time
}

// sweepState is one submitted sweep: its distinct jobs in admission
// order, plus one entry per submitted request (aliasing into jobs).
type sweepState struct {
	id        string
	jobs      []*job
	entries   []*job
	next      int // admission cursor into jobs
	cancelled bool
	// deadline, when nonzero, is the absolute instant the sweep expires;
	// timer fires expire() then, and expired latches the result.
	deadline time.Time
	timer    *time.Timer
	expired  bool
}

// jobCtl is the per-digest cancellation control for in-flight jobs:
// every sweep currently running this digest holds an owner reference,
// and the interrupt channel closes when the last owner cancels, when the
// service drains, or when the dispatcher preempts the job. The runner
// dedupes concurrent submissions of one digest into one task, so sharing
// the channel per digest matches what actually executes.
type jobCtl struct {
	ch     chan struct{}
	owners map[string]int
	closed bool
	// preempted marks a channel the dispatcher closed to time-slice the
	// job; while its job winds down no other preemption starts. yielded
	// latches once the first owner to requeue it has counted the
	// preemption.
	preempted bool
	yielded   bool
}

// Service is the sweep control plane over one runner. See the package
// comment for the wire API; Serve attaches the HTTP front end.
type Service struct {
	opts   Options
	r      *runner.Runner
	fs     faultio.FS
	tel    *telemetry.Sweep
	ownTel bool
	lt     *leaseTable // nil unless Options.Workers

	mu       sync.Mutex
	cond     *sync.Cond
	sweeps   map[string]*sweepState
	order    []string // sweep ids in submission order (round-robin ring)
	rr       int      // round-robin cursor into order
	ctl      map[string]*jobCtl
	inflight int
	draining bool
	seq      int
	// preemptKick marks a scheduled dispatcher wake-up for a starved
	// sweep whose victim was still inside its preemption floor.
	preemptKick bool
	wg          sync.WaitGroup
}

// New builds a service, reloading persisted sweeps when Options.Resume is
// set, and starts its admission dispatcher.
func New(o Options) (*Service, error) {
	if o.CacheDir == "" {
		return nil, errors.New("service: a cache directory is required")
	}
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	tel := o.Telemetry
	ownTel := false
	if tel == nil {
		tel = telemetry.NewSweep(telemetry.SweepOptions{})
		ownTel = true
	}
	if o.PreemptSlice <= 0 {
		o.PreemptSlice = 500 * time.Millisecond
	}
	fs := o.FS
	if fs == nil {
		fs = faultio.OS{}
	}
	s := &Service{
		opts:   o,
		fs:     fs,
		tel:    tel,
		ownTel: ownTel,
		sweeps: make(map[string]*sweepState),
		ctl:    make(map[string]*jobCtl),
	}
	s.cond = sync.NewCond(&s.mu)
	ro := runner.Options{
		Jobs:      o.Jobs,
		CacheDir:  o.CacheDir,
		Log:       o.Log,
		Retries:   o.Retries,
		CkptEvery: o.CkptEvery,
		Resume:    o.Resume || o.Preempt,
		Telemetry: tel,
		FS:        o.FS,
	}
	if o.Workers {
		s.lt = newLeaseTable(leaseTableOptions{
			Dir:       o.CacheDir,
			FS:        fs,
			Telemetry: tel,
			Log:       o.Log,
			TTL:       o.LeaseTTL,
			CkptEvery: o.CkptEvery,
		})
		ro.ExecuteInterruptible = s.lt.execute
	}
	s.r = runner.New(ro)
	if o.Resume {
		if err := s.reload(); err != nil {
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Runner exposes the underlying sweep engine (for stats).
func (s *Service) Runner() *runner.Runner { return s.r }

// Telemetry exposes the service's telemetry surface.
func (s *Service) Telemetry() *telemetry.Sweep { return s.tel }

// sweepDoc is one persisted sweep: <cacheDir>/sweeps/<id>.json. It holds
// the submitted requests verbatim — job states are never persisted,
// because the content-addressed cache already knows which jobs finished:
// on resume every job re-admits, finished ones land as instant disk hits,
// and interrupted ones restore from their checkpoints.
type sweepDoc struct {
	Schema    int    `json:"schema"`
	ID        string `json:"id"`
	Cancelled bool   `json:"cancelled,omitempty"`
	Expired   bool   `json:"expired,omitempty"`
	// DeadlineUnixNano is the sweep's absolute deadline, persisted so a
	// restart honors (or immediately fires) it rather than forgetting it.
	DeadlineUnixNano int64            `json:"deadline_unix_nano,omitempty"`
	Requests         []runner.Request `json:"requests"`
}

// sweepDocSchema versions the persisted sweep file format.
const sweepDocSchema = 1

func (s *Service) sweepDir() string { return filepath.Join(s.opts.CacheDir, "sweeps") }

// persistLocked writes a sweep's document atomically (mu held). A write
// failure degrades durability — the sweep still runs — and is logged.
func (s *Service) persistLocked(sw *sweepState) {
	reqs := make([]runner.Request, len(sw.entries))
	for i, j := range sw.entries {
		reqs[i] = j.req
	}
	doc := sweepDoc{Schema: sweepDocSchema, ID: sw.id, Cancelled: sw.cancelled, Expired: sw.expired, Requests: reqs}
	if !sw.deadline.IsZero() {
		doc.DeadlineUnixNano = sw.deadline.UnixNano()
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err == nil {
		// The service's file plane (faultio.FS): fsync-hardened atomic
		// writes by default, injectable faults under test.
		err = s.fs.WriteFileAtomic(s.sweepDir(), filepath.Join(s.sweepDir(), sw.id+".json"), append(data, '\n'))
	}
	if err != nil && s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, "  sweep %s not persisted: %v\n", sw.id, err)
	}
}

// reload restores persisted sweeps (oldest id first). Every non-cancelled
// job re-enters the admission queue: the runner turns already-finished
// ones into instant disk hits and resumes interrupted ones from their
// checkpoints, so nothing re-simulates that does not have to.
func (s *Service) reload() error {
	ents, err := os.ReadDir(s.sweepDir())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("service: reloading sweeps: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := s.fs.ReadFile(filepath.Join(s.sweepDir(), name))
		if err != nil {
			continue
		}
		var doc sweepDoc
		if json.Unmarshal(data, &doc) != nil || doc.Schema != sweepDocSchema || doc.ID == "" {
			if s.opts.Log != nil {
				fmt.Fprintf(s.opts.Log, "  sweep file %s unusable, skipped\n", name)
			}
			continue
		}
		sw := buildSweep(doc.ID, doc.Requests)
		sw.cancelled = doc.Cancelled
		sw.expired = doc.Expired
		if doc.DeadlineUnixNano != 0 {
			sw.deadline = time.Unix(0, doc.DeadlineUnixNano)
		}
		switch {
		case sw.cancelled:
			for _, j := range sw.jobs {
				j.state = JobCancelled
			}
		case sw.expired:
			for _, j := range sw.jobs {
				j.state = JobExpired
			}
		case !sw.deadline.IsZero():
			// The deadline survived the restart: re-arm it, or fire it now
			// if it lapsed while the service was down.
			if until := time.Until(sw.deadline); until > 0 {
				id := sw.id
				sw.timer = time.AfterFunc(until, func() { s.expire(id) })
			} else {
				sw.expired = true
				for _, j := range sw.jobs {
					j.state = JobExpired
				}
				s.tel.DeadlineExpired(uint64(len(sw.jobs)))
			}
		}
		s.sweeps[sw.id] = sw
		s.order = append(s.order, sw.id)
		if n := idSeq(doc.ID); n > s.seq {
			s.seq = n
		}
	}
	return nil
}

// idSeq extracts the numeric sequence from a sweep id ("s000012-ab34cd56").
func idSeq(id string) int {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0
	}
	num, _, _ := strings.Cut(rest, "-")
	n, _ := strconv.Atoi(num)
	return n
}

// sweepID names a sweep: a monotone sequence number plus a content prefix
// over its job digests, so ids are stable across a persist/reload cycle
// and readable in logs.
func sweepID(seq int, jobs []*job) string {
	h := sha256.New()
	for _, j := range jobs {
		io.WriteString(h, j.digest)
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("s%06d-%s", seq, hex.EncodeToString(h.Sum(nil))[:8])
}

// buildSweep expands a request batch into a sweep: requests that
// normalize to the same digest collapse into one job (the runner would
// dedupe them anyway; collapsing here keeps the status counts honest).
func buildSweep(id string, reqs []runner.Request) *sweepState {
	sw := &sweepState{id: id}
	seen := make(map[string]*job)
	for _, q := range reqs {
		d := q.Digest()
		j, ok := seen[d]
		if !ok {
			j = &job{req: q, digest: d, idx: len(sw.jobs), state: JobQueued}
			seen[d] = j
			sw.jobs = append(sw.jobs, j)
		}
		sw.entries = append(sw.entries, j)
	}
	return sw
}

// Submit validates and admits one sweep with no deadline, returning its
// initial status (every job queued). Validation is all-or-nothing: one
// bad request rejects the batch, identified by its index.
func (s *Service) Submit(reqs []runner.Request) (*SweepStatus, error) {
	return s.SubmitDeadline(reqs, 0)
}

// SubmitDeadline is Submit with a wall-clock bound: once deadline (when
// positive) elapses, the sweep's still-queued jobs expire and in-flight
// ones are interrupted at their next checkpoint boundary. The admission
// queue is also enforced here: a batch that would push the pending-job
// count past Options.MaxQueued is rejected whole with ErrOverloaded.
func (s *Service) SubmitDeadline(reqs []runner.Request, deadline time.Duration) (*SweepStatus, error) {
	if len(reqs) == 0 {
		return nil, ErrEmptySweep
	}
	if deadline < 0 {
		return nil, &runner.FieldError{
			Field: "deadline_seconds", Value: deadline.String(),
			Err: fmt.Errorf("%w: deadline must not be negative", runner.ErrBadField),
		}
	}
	for i, q := range reqs {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("service: request %d: %w", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	sw := buildSweep("", reqs)
	if max := s.opts.MaxQueued; max > 0 {
		if pending := s.pendingLocked(); pending+len(sw.jobs) > max {
			s.tel.Overloaded()
			return nil, fmt.Errorf("%w: %d jobs pending + %d submitted > limit %d",
				ErrOverloaded, pending, len(sw.jobs), max)
		}
	}
	s.seq++
	sw.id = sweepID(s.seq, sw.jobs)
	if deadline > 0 {
		sw.deadline = time.Now().Add(deadline)
		id := sw.id
		sw.timer = time.AfterFunc(deadline, func() { s.expire(id) })
	}
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.persistLocked(sw)
	s.cond.Broadcast()
	return s.statusLocked(sw), nil
}

// pendingLocked counts admitted-but-unfinished jobs across live sweeps —
// the admission queue's occupancy (mu held).
func (s *Service) pendingLocked() int {
	n := 0
	for _, sw := range s.sweeps {
		if sw.cancelled || sw.expired {
			continue
		}
		for _, j := range sw.jobs {
			if j.state == JobQueued || j.state == JobRunning {
				n++
			}
		}
	}
	return n
}

// expire marks a sweep past its deadline: still-queued jobs expire in
// place, in-flight jobs are interrupted at their next checkpoint boundary
// (classified as expired when they land), and the sweep's status turns
// terminal. Idempotent; a no-op for cancelled sweeps.
func (s *Service) expire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil || sw.cancelled || sw.expired {
		return
	}
	sw.expired = true
	n := uint64(0)
	for _, j := range sw.jobs {
		if j.state == JobQueued {
			j.state = JobExpired
			n++
		}
	}
	s.tel.DeadlineExpired(n)
	s.releaseOwnersLocked(id)
	s.persistLocked(sw)
	s.cond.Broadcast()
}

// releaseOwnersLocked drops a sweep's ownership of every in-flight job
// control, closing interrupt channels whose last owner it was (mu held).
func (s *Service) releaseOwnersLocked(id string) {
	for _, ctl := range s.ctl {
		if _, ok := ctl.owners[id]; !ok {
			continue
		}
		delete(ctl.owners, id)
		if len(ctl.owners) == 0 && !ctl.closed {
			ctl.closed = true
			close(ctl.ch)
		}
	}
}

// Status reports a sweep's current standing.
func (s *Service) Status(id string) (*SweepStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return nil, fmt.Errorf("%w: sweep %s", ErrNotFound, id)
	}
	return s.statusLocked(sw), nil
}

// Cancel cancels a sweep: queued jobs never run, in-flight jobs are
// interrupted (capturing a final checkpoint when checkpointing is on) —
// unless another live sweep also owns them, in which case they keep
// running for that sweep. Cancelling an already-cancelled sweep is a
// no-op that reports the current status.
func (s *Service) Cancel(id string) (*SweepStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return nil, fmt.Errorf("%w: sweep %s", ErrNotFound, id)
	}
	if !sw.cancelled {
		sw.cancelled = true
		if sw.timer != nil {
			sw.timer.Stop()
		}
		for _, j := range sw.jobs {
			if j.state == JobQueued {
				j.state = JobCancelled
			}
		}
		s.releaseOwnersLocked(id)
		s.persistLocked(sw)
		s.cond.Broadcast()
	}
	return s.statusLocked(sw), nil
}

// digestRe is the shape of a canonical content digest (hex sha256); a
// path parameter that does not match names nothing and is also never
// allowed near the filesystem.
var digestRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// Result returns the raw persisted cache document for a finished job —
// the same bytes a local sweep writes to <cacheDir>/<digest>.json, so
// remote and local results are byte-identical. The document is validated
// before serving: a torn or corrupted file (a crash, a full disk, an
// injected fault) is evicted and the result re-materialized from the
// runner's in-memory outcome when it has one — so a storage fault
// degrades to a re-run, never to serving garbage.
func (s *Service) Result(digest string) ([]byte, error) {
	if !digestRe.MatchString(digest) {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, digest)
	}
	path := filepath.Join(s.opts.CacheDir, digest+".json")
	if data, err := s.fs.ReadFile(path); err == nil {
		if _, _, derr := runner.DecodeEntry(data); derr == nil {
			return data, nil
		}
		// Unusable on disk; drop it so nothing downstream trusts it.
		s.fs.Remove(path)
	}
	if data, err := s.r.EntryBytes(digest); err == nil {
		return data, nil
	}
	return nil, fmt.Errorf("%w: job %s", ErrNotFound, digest)
}

// SpanOf returns a finished job's trace span while the tracer still
// retains it.
func (s *Service) SpanOf(digest string) (Span, error) {
	if sp, ok := s.tel.Tracer().Find(digest); ok {
		return sp, nil
	}
	return Span{}, fmt.Errorf("%w: span for job %s", ErrNotFound, digest)
}

// Lease grants the oldest pending job to a worker under a TTL lease (the
// server default when ttl is zero, clamped otherwise), returning (nil,
// nil) when no work is pending. ErrNoWorkers without Options.Workers.
func (s *Service) Lease(worker string, ttl time.Duration) (*LeaseGrant, error) {
	if s.lt == nil {
		return nil, ErrNoWorkers
	}
	return s.lt.lease(worker, ttl)
}

// WorkHeartbeat extends a live lease, optionally storing a shipped
// checkpoint, or — with release — hands the job back to the queue.
func (s *Service) WorkHeartbeat(digest, worker string, fence uint64, ckpt []byte, release bool) (*HeartbeatReply, error) {
	if s.lt == nil {
		return nil, ErrNoWorkers
	}
	return s.lt.heartbeat(digest, worker, fence, ckpt, release)
}

// WorkCommit settles a leased job under its fencing token: entry bytes on
// success (persisted verbatim), an error message (plus transient kind) on
// failure. At-most-once per digest; see leaseTable.commit.
func (s *Service) WorkCommit(digest, worker string, fence uint64, entry []byte, errMsg, errKind string) (*CommitReply, error) {
	if s.lt == nil {
		return nil, ErrNoWorkers
	}
	return s.lt.commit(digest, worker, fence, entry, errMsg, errKind)
}

// statusLocked snapshots one sweep (mu held).
func (s *Service) statusLocked(sw *sweepState) *SweepStatus {
	st := &SweepStatus{Schema: runner.WireSchema, ID: sw.id, Retries: s.r.Stats().Retries}
	for _, j := range sw.entries {
		st.Jobs = append(st.Jobs, JobStatus{
			Digest: j.digest, Request: j.req, State: j.state,
			Cached: j.cached, Error: j.errMsg,
		})
		switch j.state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCancelled:
			st.Cancelled++
		case JobExpired:
			st.Expired++
		}
	}
	switch {
	case sw.cancelled:
		st.State = SweepCancelled
	case sw.expired:
		st.State = SweepExpired
	case st.Queued+st.Running > 0:
		if st.Running+st.Done+st.Failed > 0 {
			st.State = SweepRunning
		} else {
			st.State = SweepQueued
		}
	case st.Failed > 0:
		st.State = SweepFailed
	case st.Cancelled > 0:
		st.State = SweepCancelled
	default:
		st.State = SweepDone
	}
	if remaining := st.Queued + st.Running; remaining > 0 {
		p := s.tel.Progress()
		if fin := p.Finished(); fin > 0 && p.ElapsedSeconds > 0 {
			workers := p.Workers
			if workers < 1 {
				workers = 1
			}
			st.ETASeconds = p.ElapsedSeconds / float64(fin) * float64(remaining) / float64(workers)
		}
	}
	return st
}

// dispatch is the admission loop: it fills the worker pool round-robin
// across sweeps — one job from each sweep with work, in submission order
// — so a thousand-job sweep cannot starve a one-job sweep submitted
// after it. It exits when the service drains.
func (s *Service) dispatch() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.draining {
			s.mu.Unlock()
			return
		}
		j, sw := s.nextLocked()
		if j == nil {
			if s.opts.Preempt {
				s.maybePreemptLocked()
			}
			s.cond.Wait()
			continue
		}
		j.state = JobRunning
		j.startedAt = time.Now()
		s.inflight++
		ctl := s.ctl[j.digest]
		if ctl == nil || ctl.closed {
			ctl = &jobCtl{ch: make(chan struct{}), owners: make(map[string]int)}
			s.ctl[j.digest] = ctl
		}
		ctl.owners[sw.id]++
		j.ctl = ctl
		s.mu.Unlock()
		t := s.r.SubmitInterruptible(j.req, ctl.ch)
		s.wg.Add(1)
		go s.await(t, j, sw.id)
		s.mu.Lock()
	}
}

// maybePreemptLocked cancels one running job when the pool is full and
// some live sweep is starved — queued work, nothing of its own running —
// while another sweep holds workers (mu held). The cancellation closes
// the job's control channel, as Cancel does, but marks it preempted, so
// await requeues the job for every live owner. The victim is a running
// job from the sweep with the most in flight, and at most one preemption
// is pending at a time, so time-slicing converges instead of thrashing. A
// victim younger than Options.PreemptSlice is left to run; a timer
// re-kicks the dispatcher when the floor passes.
func (s *Service) maybePreemptLocked() {
	if s.inflight < s.opts.Jobs {
		return
	}
	starved := false
	for _, sw := range s.sweeps {
		if sw.cancelled || sw.expired {
			continue
		}
		queued, running := 0, 0
		for _, j := range sw.jobs {
			switch j.state {
			case JobQueued:
				queued++
			case JobRunning:
				running++
				if j.ctl.preempted {
					// One yield already in flight; wait for it to land.
					return
				}
			}
		}
		if queued > 0 && running == 0 {
			starved = true
		}
	}
	if !starved {
		return
	}
	var victim *jobCtl
	best, youngest := 0, false
	for _, id := range s.order {
		sw := s.sweeps[id]
		if sw.cancelled || sw.expired {
			continue
		}
		running := 0
		for _, j := range sw.jobs {
			if j.state == JobRunning {
				running++
			}
		}
		if running <= best {
			continue
		}
		for _, j := range sw.jobs {
			if j.state != JobRunning || j.ctl.closed {
				continue
			}
			if time.Since(j.startedAt) < s.opts.PreemptSlice {
				youngest = true
				continue
			}
			best, victim = running, j.ctl
			break
		}
	}
	if victim == nil {
		if youngest && !s.preemptKick {
			// Every candidate is inside its preemption floor: check back
			// once the floor can have passed.
			s.preemptKick = true
			time.AfterFunc(s.opts.PreemptSlice/2+time.Millisecond, func() {
				s.mu.Lock()
				s.preemptKick = false
				s.cond.Broadcast()
				s.mu.Unlock()
			})
		}
		return
	}
	victim.preempted = true
	victim.closed = true
	close(victim.ch)
}

// nextLocked picks the next job to admit (mu held): round-robin over
// sweeps, skipping cancelled and exhausted ones, bounded by the pool.
func (s *Service) nextLocked() (*job, *sweepState) {
	if s.inflight >= s.opts.Jobs {
		return nil, nil
	}
	n := len(s.order)
	for k := 0; k < n; k++ {
		sw := s.sweeps[s.order[(s.rr+k)%n]]
		if sw.cancelled || sw.expired {
			continue
		}
		for sw.next < len(sw.jobs) && sw.jobs[sw.next].state != JobQueued {
			sw.next++
		}
		if sw.next >= len(sw.jobs) {
			continue
		}
		j := sw.jobs[sw.next]
		sw.next++
		s.rr = (s.rr + k + 1) % n
		return j, sw
	}
	return nil, nil
}

// await collects one admitted job's outcome.
func (s *Service) await(t *runner.Task, j *job, owner string) {
	defer s.wg.Done()
	out, err := t.Wait()
	s.mu.Lock()
	s.inflight--
	sw := s.sweeps[owner]
	ctl := j.ctl
	switch {
	case err == nil:
		j.state = JobDone
		j.cached = out.Cached
	case errors.Is(err, machine.ErrInterrupted):
		switch {
		case sw != nil && sw.expired:
			j.state = JobExpired
			s.tel.DeadlineExpired(1)
		case sw != nil && !sw.cancelled && !s.draining:
			// The owning sweep did not cancel: the job was preempted (or
			// deduped onto a task another sweep's cancel or preemption
			// stopped). Back to the queue, and the admission cursor
			// rewinds so round-robin revisits it; its persisted
			// checkpoint resumes it on re-admission. Every live owner
			// requeues; a preemption counts once.
			j.state = JobQueued
			if j.idx < sw.next {
				sw.next = j.idx
			}
			if ctl.preempted && !ctl.yielded {
				ctl.yielded = true
				s.tel.JobPreempted()
			}
		default:
			j.state = JobCancelled
		}
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
	}
	if n := ctl.owners[owner]; n > 1 {
		ctl.owners[owner] = n - 1
	} else {
		delete(ctl.owners, owner)
	}
	if len(ctl.owners) == 0 && s.ctl[j.digest] == ctl {
		delete(s.ctl, j.digest)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Wait blocks until every admitted sweep is quiescent: nothing queued in
// a live sweep, nothing in flight. Mostly for tests and one-shot hosts.
func (s *Service) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.idleLocked() {
		s.cond.Wait()
	}
}

func (s *Service) idleLocked() bool {
	if s.inflight > 0 {
		return false
	}
	for _, sw := range s.sweeps {
		if sw.cancelled || sw.expired {
			continue
		}
		for _, j := range sw.jobs {
			if j.state == JobQueued || j.state == JobRunning {
				return false
			}
		}
	}
	return true
}

// Drain stops admission and interrupts every in-flight job so it
// checkpoints, then waits for the pool to empty. Queued jobs stay in
// their persisted sweep documents; a restart with Options.Resume picks
// them back up. Drain is idempotent.
func (s *Service) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, sw := range s.sweeps {
			if sw.timer != nil {
				sw.timer.Stop()
			}
		}
		for _, ctl := range s.ctl {
			if !ctl.closed {
				ctl.closed = true
				close(ctl.ch)
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.lt != nil {
		// Stop fleet dispatch after the interrupt channels closed: every
		// parked job finishes with machine.ErrInterrupted, so the await
		// goroutines below can drain. Queued jobs stay in their persisted
		// sweep documents; shipped checkpoints stay on disk for resume.
		s.lt.close()
	}
	s.wg.Wait()
}

// Close drains the service and releases the runner's and (when owned)
// the telemetry surface's resources.
func (s *Service) Close() error {
	s.Drain()
	err := s.r.Close()
	if s.ownTel {
		if e := s.tel.Close(); err == nil {
			err = e
		}
	}
	return err
}
