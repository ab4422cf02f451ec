package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
)

// warmCache runs req into cache, so a service on the same cache directory
// answers it as an instant disk hit.
func warmCache(t *testing.T, cache string, req runner.Request) {
	t.Helper()
	r := runner.New(runner.Options{Jobs: 1, CacheDir: cache})
	defer r.Close()
	if _, err := r.Run(req); err != nil {
		t.Fatal(err)
	}
}

// leaseYielding leases the pending job to a hand-driven worker and
// returns its grant. The job then stays leased — and, once preempted,
// yielding — until the test releases it.
func leaseYielding(t *testing.T, svc *Service) *LeaseGrant {
	t.Helper()
	var g *LeaseGrant
	waitFor(t, "a job to reach the lease table", func() bool {
		var err error
		g, err = svc.Lease("hand", time.Minute)
		return err == nil && g != nil
	})
	return g
}

// awaitYield heartbeats a hand-held lease until the server asks the
// holder to yield, i.e. until the dispatcher has preempted the job.
func awaitYield(t *testing.T, svc *Service, g *LeaseGrant) {
	t.Helper()
	waitFor(t, "the dispatcher to preempt the leased job", func() bool {
		rep, err := svc.WorkHeartbeat(g.Digest, "hand", g.Fence, nil, false)
		return err == nil && rep.Yield
	})
}

// TestCancelOutranksPreempt: a sweep cancelled while its preempted job
// is still yielding ends that job cancelled. It is not requeued, and no
// preemption is counted, because the job never went back to the queue.
func TestCancelOutranksPreempt(t *testing.T) {
	cache := t.TempDir()
	warmCache(t, cache, counterReq(93))
	svc, err := New(Options{
		CacheDir: cache, Jobs: 1, Workers: true,
		Preempt: true, PreemptSlice: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	stA, err := svc.Submit([]runner.Request{longReq()})
	if err != nil {
		t.Fatal(err)
	}
	g := leaseYielding(t, svc)
	// A starved sweep makes the dispatcher preempt A's job.
	stB, err := svc.Submit([]runner.Request{counterReq(93)})
	if err != nil {
		t.Fatal(err)
	}
	awaitYield(t, svc, g)
	if _, err := svc.Cancel(stA.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.WorkHeartbeat(g.Digest, "hand", g.Fence, nil, true); err != nil {
		t.Fatal(err)
	}
	svc.Wait()

	a := mustStatus(t, svc, stA.ID)
	if a.State != SweepCancelled || a.Cancelled != 1 || a.Queued != 0 {
		t.Fatalf("cancelled sweep = %+v, want its yielding job cancelled", a)
	}
	if b := mustStatus(t, svc, stB.ID); b.State != SweepDone {
		t.Fatalf("starved sweep = %+v, want done", b)
	}
	if st := svc.Runner().Stats(); st.Preempted != 0 || st.Interrupted != 1 {
		t.Fatalf("runner stats = %+v, want 0 preempted, 1 interrupted", st)
	}
}

// TestPreemptSharedDigestRequeuesInBoth: one digest run for two live
// sweeps is one runner task, so preempting it stops both sweeps' jobs.
// Both requeue (neither is cancelled), the preemption counts once, and
// both sweeps finish.
func TestPreemptSharedDigestRequeuesInBoth(t *testing.T) {
	cache := t.TempDir()
	warmCache(t, cache, counterReq(94))
	svc, srv, _ := startService(t, Options{
		CacheDir: cache, Jobs: 2, Workers: true, CkptEvery: 20000,
		Preempt: true, PreemptSlice: 200 * time.Millisecond,
	})

	stA, err := svc.Submit([]runner.Request{longReq()})
	if err != nil {
		t.Fatal(err)
	}
	g := leaseYielding(t, svc)
	stA2, err := svc.Submit([]runner.Request{longReq()})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second sweep to share the running job", func() bool {
		return mustStatus(t, svc, stA2.ID).Running == 1
	})
	svc.mu.Lock()
	ctl := svc.ctl[g.Digest]
	owners := len(ctl.owners)
	svc.mu.Unlock()
	if owners != 2 {
		t.Fatalf("shared job has %d owners, want 2", owners)
	}
	// Both pool slots hold the shared job; a third sweep is starved.
	stB, err := svc.Submit([]runner.Request{counterReq(94)})
	if err != nil {
		t.Fatal(err)
	}
	awaitYield(t, svc, g)
	if _, err := svc.WorkHeartbeat(g.Digest, "hand", g.Fence, nil, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both owners to collect the yield", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(ctl.owners) == 0
	})
	// Checked well inside PreemptSlice of the requeue, so no second
	// preemption can have landed yet.
	if p := svc.Telemetry().Progress(); p.Preempted != 1 {
		t.Fatalf("telemetry preempted = %d, want 1 for one shared job", p.Preempted)
	}
	if st := svc.Runner().Stats(); st.Preempted != 1 {
		t.Fatalf("runner stats preempted = %d, want 1", st.Preempted)
	}
	for _, id := range []string{stA.ID, stA2.ID} {
		if st := mustStatus(t, svc, id); st.Cancelled != 0 || st.Terminal() {
			t.Fatalf("sweep %s after the yield = %+v, want its job requeued", id, st)
		}
	}

	startWorker(t, srv, WorkerOptions{ID: "w"})
	for _, id := range []string{stA.ID, stA2.ID, stB.ID} {
		waitFor(t, "sweep "+id+" to finish", func() bool {
			return mustStatus(t, svc, id).State == SweepDone
		})
	}
}

// TestPreemptionIsNotAFailure: a preempted job is neither quarantined
// nor listed in Failed, and its yielded attempt's span reads interrupted.
func TestPreemptionIsNotAFailure(t *testing.T) {
	cache := t.TempDir()
	svc, err := New(Options{
		CacheDir: cache, Jobs: 1, CkptEvery: 20000,
		Preempt: true, PreemptSlice: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	stA, err := svc.Submit([]runner.Request{longReq()})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sweep A to start running", func() bool {
		return mustStatus(t, svc, stA.ID).Running == 1
	})
	if _, err := svc.Submit([]runner.Request{counterReq(95)}); err != nil {
		t.Fatal(err)
	}
	svc.Wait()

	st := svc.Runner().Stats()
	if st.Preempted < 1 || st.Errors != 0 {
		t.Fatalf("runner stats = %+v, want a preemption and no errors", st)
	}
	if failed := svc.Runner().Failed(); len(failed) != 0 {
		t.Fatalf("preempted job listed as failed: %v", failed)
	}
	ents, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".failed.json") {
			t.Fatalf("preemption left a quarantine marker: %s", e.Name())
		}
	}
	digest := longReq().Digest()
	var outcomes []telemetry.Outcome
	for _, sp := range svc.Telemetry().Tracer().Tail(0) {
		if sp.Digest == digest {
			outcomes = append(outcomes, sp.Outcome)
		}
	}
	if n := len(outcomes); n < 2 || outcomes[0] != telemetry.OutcomeInterrupted || outcomes[n-1] != telemetry.OutcomeOK {
		t.Fatalf("preempted job's spans = %v, want interrupted first and ok last", outcomes)
	}
	if _, err := os.Stat(filepath.Join(cache, digest+".json")); err != nil {
		t.Fatalf("resumed job did not persist its result: %v", err)
	}
}
