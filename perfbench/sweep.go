package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynamo/internal/runner"
	"dynamo/internal/service"
)

// env is one workload made ready to sweep: its request stream, a fresh
// cache directory and a runner over it, plus — for the fleet — a served
// sweep service with registered in-process workers.
type env struct {
	reqs    []runner.Request
	dir     string
	r       *runner.Runner
	svc     *service.Service
	srv     *service.Server
	workers []*service.Worker
	tr      *tracer // nil: untraced

	mu   sync.Mutex
	seam []time.Duration // per-job time as the runner's execute seam saw it
}

// setup makes a workload ready: the request list, cold cache directories
// under dir (a path that does not exist yet; the runner and the service
// create their directories on first write, as they do for any fresh
// -cache-dir) and, for the fleet, the server plus two workers that have
// polled it. A nil tracer measures nothing but the execute seam.
func setup(w workloadDef, root, dir string, seed int64, tr *tracer) (*env, error) {
	reqs, err := w.requests(root, seed)
	if err != nil {
		return nil, err
	}
	e := &env{reqs: reqs, dir: dir, tr: tr}
	seam := e.localExec
	seamName := "exec"
	if w.remote {
		client, err := e.startFleet()
		if err != nil {
			e.close()
			return nil, err
		}
		seam = client.ExecuteInterruptible
		seamName = "client.execute"
	}
	e.r = runner.New(runner.Options{
		Jobs:                 slots,
		CacheDir:             filepath.Join(dir, "client"),
		ExecuteInterruptible: e.timed(seamName, seam),
	})
	return e, nil
}

// startFleet serves a sweep service in worker-dispatch mode on loopback,
// starts two one-slot fleet workers with shipped defaults, and waits
// until both have made their first lease call.
func (e *env) startFleet() (*service.Client, error) {
	svc, err := service.New(service.Options{CacheDir: filepath.Join(e.dir, "server"), Workers: true})
	if err != nil {
		return nil, err
	}
	e.svc = svc
	srv, err := service.Serve("127.0.0.1:0", svc)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	var polled [slots]atomic.Int64
	for i := range polled {
		wo := service.WorkerOptions{
			Addr:      srv.Addr(),
			ID:        fmt.Sprintf("w%d", i+1),
			Slots:     1,
			Transport: &workerTransport{polled: &polled[i], tr: e.tr},
		}
		if e.tr != nil {
			wo.Execute = e.tr.workerExec
		}
		wk := service.NewWorker(wo)
		wk.Start()
		e.workers = append(e.workers, wk)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := range polled {
		for polled[i].Load() == 0 {
			if time.Now().After(deadline) {
				return nil, errors.New("fleet workers did not poll the server within 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	client := service.Dial(srv.Addr())
	if e.tr != nil {
		client.HTTP = &http.Client{Transport: &clientTransport{tr: e.tr}}
	}
	return client, nil
}

// localExec is the in-process execute seam: runner.ExecuteLocal, or its
// step-by-step traced replica.
func (e *env) localExec(q runner.Request, intr <-chan struct{}) (*runner.Outcome, error) {
	x := runner.ExecOptions{Interrupt: intr}
	if e.tr != nil {
		return e.tr.execute(q, x, e.tr.rootOf(q.Digest()))
	}
	return runner.ExecuteLocal(q, x)
}

// timed wraps an execute seam, recording each call's duration and, when
// traced, a root span per job keyed by the job's digest.
func (e *env) timed(name string, seam func(runner.Request, <-chan struct{}) (*runner.Outcome, error)) func(runner.Request, <-chan struct{}) (*runner.Outcome, error) {
	return func(q runner.Request, intr <-chan struct{}) (*runner.Outcome, error) {
		var id int
		if e.tr != nil {
			id = e.tr.begin(name, q.Digest())
		}
		start := time.Now()
		out, err := seam(q, intr)
		d := time.Since(start)
		if e.tr != nil {
			e.tr.end(id)
		}
		e.mu.Lock()
		e.seam = append(e.seam, d)
		e.mu.Unlock()
		return out, err
	}
}

// close stops everything setup started and removes the cache directory.
func (e *env) close() {
	if e.r != nil {
		e.r.Close()
	}
	for _, w := range e.workers {
		w.Drain()
	}
	if e.srv != nil {
		// The workers' and the client's keep-alive connections share the
		// default transport; closing them first keeps the server's
		// graceful shutdown from waiting out its timeout on one of them.
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
		e.srv.Close()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	os.RemoveAll(e.dir)
}

// jobResult is one distinct job of a sweep.
type jobResult struct {
	req    runner.Request
	digest string
	out    *runner.Outcome
	err    error
	// hash identifies the result: a prefix of the sha256 of its canonical
	// cache entry with the wall-clock field zeroed ("" for a failed job).
	hash string
}

// sweepResult is one cold sweep's measurements.
type sweepResult struct {
	wall  time.Duration
	stats runner.Stats
	seam  []time.Duration
	jobs  []jobResult
	// gcCycles and allocBytes are Go runtime deltas over the sweep.
	gcCycles   uint32
	allocBytes uint64
}

// sweep runs the request stream as a closed loop of `slots` clients, each
// sending its next request once the previous one returned, then
// identifies the distinct jobs and hashes their results. Only the loop
// itself is inside the measured wall time.
func (e *env) sweep() *sweepResult {
	n := len(e.reqs)
	outs := make([]*runner.Outcome, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for c := 0; c < slots; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				outs[i], errs[i] = e.r.Run(e.reqs[i])
			}
		}()
	}
	wg.Wait()
	res := &sweepResult{wall: time.Since(start), stats: e.r.Stats()}
	runtime.ReadMemStats(&m1)
	res.gcCycles = m1.NumGC - m0.NumGC
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	e.mu.Lock()
	res.seam = append([]time.Duration(nil), e.seam...)
	e.mu.Unlock()

	digests := e.tr.digestAll(e.reqs)
	seen := make(map[string]bool, n)
	for i, q := range e.reqs {
		if seen[digests[i]] {
			continue
		}
		seen[digests[i]] = true
		res.jobs = append(res.jobs, jobResult{req: q, digest: digests[i], out: outs[i], err: errs[i]})
	}
	for i := range res.jobs {
		j := &res.jobs[i]
		if j.err != nil {
			continue
		}
		if j.hash, j.err = e.tr.encodeHash(j.req, j.digest, j.out); j.err != nil {
			j.hash = ""
		}
	}
	return res
}

// resultHash is the identity of one job's result: the first 16 hex digits
// of the sha256 of its canonical cache entry, with elapsed time zeroed so
// the bytes depend on the simulation alone.
func resultHash(entry []byte) string {
	sum := sha256.Sum256(entry)
	return hex.EncodeToString(sum[:8])
}
