package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/serve"
)

// pollInterval is how often an svc-water client polls its job.
const pollInterval = time.Millisecond

// jobsPerSecondCap sizes the job mix: a run can use up to this many jobs
// per measured second before the mix runs out.
const jobsPerSecondCap = 500

// service is an in-process serve.Server behind its real HTTP handler on
// a loopback port, with a journal in its own directory.
type service struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	hc      *http.Client
	journal string
}

func openService(dir string, executors int) (*service, error) {
	srv, err := serve.Open(serve.Config{
		MaxConcurrent:  executors,
		DefaultWorkers: 1,
		DataDir:        dir,
		MemBudget:      1 << 50, // admission runs, and never rejects
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &service{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		journal: filepath.Join(dir, "jobs.journal"),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for Serve to return, and drains the
// server.
func (s *service) close() {
	s.hs.Close()
	<-s.served
	s.hc.CloseIdleConnections()
	s.srv.Shutdown()
}

// call makes one JSON request and decodes a 2xx response into out.
func (s *service) call(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	// Drain so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// jobOutcome is what a client observed of one job.
type jobOutcome struct {
	job            svcJob
	latency        time.Duration // POST /jobs to the poll that saw it terminal
	submit         time.Duration // the POST alone
	polls          int
	spanned        bool
	key            string
	res            serve.JobResult
	profile        *obsv.Profile // spanned jobs only
	refused, fault string
}

// runJob submits one job, polls it to a terminal state, and for spanned
// jobs fetches its profile afterwards, outside the latency.
func (s *service) runJob(rec *recorder, op int, j svcJob) jobOutcome {
	out := jobOutcome{job: j, spanned: rec != nil}
	root := rec.begin("bench.op", op, openSpan{})
	defer root.end()
	t0 := time.Now()
	sp := rec.begin("serve.submit", op, root)
	var st serve.JobStatus
	code, err := s.call(http.MethodPost, "/jobs", j.Spec, &st)
	sp.end()
	out.submit = time.Since(t0)
	switch {
	case err != nil:
		out.fault = err.Error()
		return out
	case code == http.StatusTooManyRequests:
		out.refused = "429"
		return out
	case code != http.StatusAccepted:
		out.fault = fmt.Sprintf("submit: HTTP %d", code)
		return out
	}
	id := st.ID
	for !st.State.Terminal() {
		time.Sleep(pollInterval)
		sp := rec.begin("serve.poll", op, root)
		st = serve.JobStatus{}
		code, err = s.call(http.MethodGet, "/jobs/"+id, nil, &st)
		sp.end()
		out.polls++
		if err != nil || code != http.StatusOK {
			out.fault = fmt.Sprintf("poll: HTTP %d: %v", code, err)
			return out
		}
	}
	out.latency = time.Since(t0)
	if st.State != serve.JobDone || st.Result == nil {
		out.fault = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return out
	}
	out.key, out.res = st.PlanKey, *st.Result
	if rec != nil {
		sp := rec.begin("serve.profile", op, root)
		var p obsv.Profile
		code, err = s.call(http.MethodGet, "/jobs/"+st.ID+"/profile", nil, &p)
		sp.end()
		if err != nil || code != http.StatusOK {
			out.fault = fmt.Sprintf("profile: HTTP %d: %v", code, err)
			return out
		}
		out.profile = &p
	}
	return out
}

// checkJob is the correctness gate of one job.
func (b *bench) checkJob(o jobOutcome) bool {
	switch {
	case o.refused != "":
		return b.check.fail("%s refused: %s", o.job.Sys.Name, o.refused)
	case o.fault != "":
		return b.check.fail("%s: %s", o.job.Sys.Name, o.fault)
	}
	return b.check.energy(o.key, o.job.Sys, o.res.Energy) && b.check.count("tasks "+o.key, o.res.Tasks)
}

// runSvc is the svc-water workload: a closed loop of clients, each
// submitting a job over HTTP, polling it to completion, and submitting
// the next.
func runSvc(b *bench) error {
	ld := loadFor(b.workload, b.nproc)
	mix := jobMix(b.seed, max(256, int(b.seconds.Seconds())*jobsPerSecondCap))
	seen := map[sysSpec]bool{}
	var systems []sysSpec
	for _, j := range mix {
		if !seen[j.Sys] {
			seen[j.Sys] = true
			systems = append(systems, j.Sys)
		}
	}
	if err := b.references(systems); err != nil {
		return err
	}

	base, err := os.MkdirTemp(outDir, "svc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	var svc *service
	water := presetSpec(molecule.Water631G())
	err = b.setup(func(last bool) error {
		dir, err := os.MkdirTemp(base, "data-")
		if err != nil {
			return err
		}
		s, err := openService(dir, ld.Workers)
		if err != nil {
			return err
		}
		// Warm-up: one job per plan key of the preset mix.
		for _, v := range []string{"v4", "v5"} {
			o := s.runJob(nil, 0, svcJob{Sys: water, Spec: serve.JobSpec{Preset: "water", Variant: v}})
			if !b.checkJob(o) {
				s.close()
				return fmt.Errorf("warm-up job failed")
			}
		}
		if last {
			svc = s
		} else {
			s.close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer svc.close()

	var before serve.Stats
	if _, err := svc.call(http.MethodGet, "/stats", nil, &before); err != nil {
		return err
	}
	journal0, err := os.Stat(svc.journal)
	if err != nil {
		return err
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		outcomes []jobOutcome
		wg       sync.WaitGroup
	)
	heap := startHeapSampler()
	start := time.Now()
	for c := 0; c < ld.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < b.seconds {
				i := int(next.Add(1) - 1)
				if i >= len(mix) {
					return
				}
				var rec *recorder
				if i%2 == 0 {
					rec = b.rec // traced runs span every other job
				}
				o := svc.runJob(rec, b.newOp(), mix[i])
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	heapMB := heap.finish()

	var after serve.Stats
	if _, err := svc.call(http.MethodGet, "/stats", nil, &after); err != nil {
		return err
	}
	journal1, err := os.Stat(svc.journal)
	if err != nil {
		return err
	}

	var lat, spanned, unspanned []float64
	for _, o := range outcomes {
		ok := b.checkJob(o)
		b.op(ok)
		if !ok {
			continue
		}
		lat = append(lat, ms(o.latency))
		if o.spanned {
			spanned = append(spanned, ms(o.latency))
		} else {
			unspanned = append(unspanned, ms(o.latency))
		}
	}
	b.note("svc-water: %d clients, closed loop, %d executors of 1 worker, poll every %v; %d jobs (every %dth a new system)",
		ld.Clients, ld.Workers, pollInterval, len(outcomes), newSystemEvery)
	if !b.traced() {
		b.opStats(lat, window)
		b.memStats(heapMB)
		if p95, ok := percentile(lat, 0.95); ok {
			b.note("op_ms_p95 %.6g ms (n=%d)", p95, len(lat))
		} else {
			b.note("op_ms_p95 not reported: n=%d leaves fewer than %d samples beyond it", len(lat), minBeyond)
		}
		return nil
	}

	b.spanOverhead(spanned, unspanned)
	spec, err := ccsd.VariantByName("v5")
	if err != nil {
		return err
	}
	var compile []float64
	var plan *ccsd.CompiledPlan
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		plan = ccsd.Compile(water.system(), spec, ccsd.Options{Nodes: 1})
		compile = append(compile, ms(time.Since(t0)))
	}
	b.set("ccsd.compile_ms", median(compile))
	// Jobs run on one worker; so does this split of the same plan.
	if _, _, err := planLayers(b, plan, water, "water v5 in-process", 1, time.Second); err != nil {
		return err
	}
	// After planLayers: here the per-task overhead comes from the jobs'
	// own profiles.
	svcLayers(b, outcomes, before, after, journal1.Size()-journal0.Size())
	return nullProbe(b)
}

// svcLayers records the serve layer's metrics from the job outcomes and
// the /stats counters around the timed loop.
func svcLayers(b *bench, outs []jobOutcome, before, after serve.Stats, journalBytes int64) {
	var submit, submitNew, queue, compile, exec, slack, bodyFrac, overhead []float64
	polls, jobs := 0, 0
	for _, o := range outs {
		if o.fault != "" || o.refused != "" {
			continue
		}
		jobs++
		polls += o.polls
		r := o.res
		submit = append(submit, ms(o.submit))
		if o.job.Spec.Custom != nil {
			submitNew = append(submitNew, ms(o.submit))
		}
		queue = append(queue, float64(r.QueueNs)/1e6)
		if !r.CacheHit {
			compile = append(compile, float64(r.InspectNs+r.PlanNs)/1e6)
		}
		exec = append(exec, float64(r.ExecNs)/1e6)
		slack = append(slack, ms(o.latency)-float64(r.QueueNs+r.InspectNs+r.PlanNs+r.ExecNs)/1e6)
		if p := o.profile; p != nil && r.ExecNs > 0 && p.Tasks > 0 {
			var body, busy int64
			for _, c := range p.Classes {
				body += c.Total
			}
			for _, w := range p.Workers {
				busy += w.Busy
			}
			bodyFrac = append(bodyFrac, float64(body)/float64(r.ExecNs))
			overhead = append(overhead, float64(p.Span*int64(len(p.Workers))-busy)/float64(p.Tasks))
		}
	}
	hits := after.Cache.Hits - before.Cache.Hits
	lookups := hits + after.Cache.Misses - before.Cache.Misses
	b.set("serve.submit_ms_p50", median(submit))
	b.set("serve.submit_ms_p50_new", median(submitNew))
	b.set("serve.queue_ms_p50", median(queue))
	b.set("serve.compile_ms_p50", median(compile))
	b.set("serve.exec_ms_p50", median(exec))
	b.set("serve.slack_ms_p50", median(slack))
	b.set("serve.cache_hit_ratio", frac(float64(hits), float64(lookups)))
	b.set("serve.polls_per_job", frac(float64(polls), float64(jobs)))
	b.set("serve.journal_bytes_per_job", frac(float64(journalBytes), float64(jobs)))
	b.set("serve.rejects", float64(after.Rejected-before.Rejected))
	b.set("serve.profile_body_frac", median(bodyFrac))
	b.set("runtime.overhead_ns_per_task", median(overhead))
	b.note("serve.*: %d jobs, %d new-system submits, %d cache misses; cache_hit_ratio base: %d lookups; evictions %d",
		jobs, len(submitNew), len(compile), lookups, after.Cache.Evictions-before.Cache.Evictions)
	b.note("serve.profile_body_frac and runtime.overhead_ns_per_task (profile span x workers minus busy, per task): %d job profiles", len(bodyFrac))
}
