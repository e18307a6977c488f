package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	mpas "repro"
	"repro/internal/cluster"
	"repro/internal/conform"
	"repro/internal/mesh"
	"repro/internal/serve"
	"repro/internal/sw"
	"repro/internal/telemetry"
)

// service is one coordinator in front of two serve workers, each on its own
// loopback HTTP listener.
type service struct {
	dir     string
	coord   *cluster.Coordinator
	workers []*serve.Server
	regs    []*telemetry.Registry
	servers []*http.Server
	url     string // the coordinator's base URL
	wurls   []string
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func postJSON(cl *http.Client, url string, body any, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := cl.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(raw, out)
	}
	return resp.StatusCode, nil
}

func get(cl *http.Client, url string) ([]byte, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// startService brings up the coordinator and two workers (one job at a
// time each), registers the workers over HTTP, and warms each worker's mesh
// cache with a one-step job per level of the mix, submitted to the worker
// directly so both workers are warmed.
func startService(r *run, cl *http.Client, dir string) (*service, error) {
	sp := r.span("service start")
	defer sp.End()
	s := &service{dir: dir}
	coord, err := cluster.New(cluster.Config{SpoolDir: filepath.Join(dir, "coord")})
	if err != nil {
		return nil, err
	}
	s.coord = coord
	srv, url, err := listen(coord.Handler())
	if err != nil {
		s.close()
		return nil, err
	}
	s.servers, s.url = append(s.servers, srv), url
	for i := 0; i < 2; i++ {
		reg := telemetry.NewRegistry()
		w, err := serve.New(serve.Config{Workers: 1, QueueCap: 16, CheckpointEvery: 10,
			SpoolDir: filepath.Join(dir, fmt.Sprintf("w%d", i)), Registry: reg})
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers, s.regs = append(s.workers, w), append(s.regs, reg)
		wsrv, wurl, err := listen(w.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers, s.wurls = append(s.servers, wsrv), append(s.wurls, wurl)
		rsp := sp.StartChild("cluster register")
		_, err = postJSON(cl, s.url+"/cluster/workers", cluster.Worker{Name: fmt.Sprintf("w%d", i), URL: wurl}, nil)
		rsp.End()
		if err != nil {
			s.close()
			return nil, err
		}
	}
	for _, wurl := range s.wurls {
		for _, lv := range mixLevels {
			wsp := sp.StartChild(fmt.Sprintf("warm level %d", lv))
			var st serve.JobStatus
			_, err := postJSON(cl, wurl+"/jobs", serve.JobSpec{Level: lv, Mode: "plan", Steps: 1, Workers: 1}, &st)
			if err == nil {
				_, err = followEvents(cl, wurl, st.ID, nil)
			}
			wsp.End()
			if err != nil {
				s.close()
				return nil, fmt.Errorf("warming %s level %d: %w", wurl, lv, err)
			}
		}
	}
	return s, nil
}

func (s *service) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	os.RemoveAll(s.dir)
}

// followEvents reads a job's NDJSON event stream until its "done" event and
// returns it; onEvent (may be nil) sees every event as it arrives.
func followEvents(cl *http.Client, base, id string, onEvent func(serve.Event)) (serve.Event, error) {
	resp, err := cl.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		return serve.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Event{}, fmt.Errorf("events %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return serve.Event{}, fmt.Errorf("events %s: %w", id, err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Type == "done" {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return serve.Event{}, err
	}
	return serve.Event{}, fmt.Errorf("events %s: stream ended before done", id)
}

// jobRecord is one job of the closed loop as its client saw it.
type jobRecord struct {
	spec        serve.JobSpec
	refused     bool
	err         error
	state       serve.JobState
	result      serve.Result
	checkpoints int
	ckptBytes   int
	traced      bool
	deck        int       // index of the job's deck in the mix
	start, done time.Time // submit and "done" event, client-side
	// Client-side times in seconds.
	submit, queueWait, run, latency, fetchResult, fetchCkpt float64
}

// doJob drives one job through the coordinator: submit, follow the event
// stream to done, fetch the result, fetch the checkpoint.
// In a traced run the job's spans go on the client's track, so the spans
// of the two concurrent clients nest unambiguously.
func doJob(r *run, cl *http.Client, base string, spec serve.JobSpec, traced bool, track int) *jobRecord {
	rec := &jobRecord{spec: spec, traced: traced}
	var sp *telemetry.Span
	if traced {
		sp = r.tr.StartSpanOnTrack("job", track)
	}
	defer sp.End()
	t0 := time.Now()
	ssp := sp.StartChild("cluster submit")
	var info cluster.Info
	code, err := postJSON(cl, base+"/jobs", spec, &info)
	ssp.SetArg("job", info.ID)
	ssp.End()
	sp.SetArg("job", info.ID)
	tAck := time.Now()
	rec.submit = tAck.Sub(t0).Seconds()
	if err != nil {
		rec.refused, rec.err = code == http.StatusTooManyRequests, err
		return rec
	}
	var tRunning time.Time
	esp := sp.StartChild("serve events")
	esp.SetArg("job", info.ID)
	done, err := followEvents(cl, base, info.ID, func(ev serve.Event) {
		switch {
		case ev.Type == "state" && ev.State == serve.StateRunning && tRunning.IsZero():
			tRunning = time.Now()
		case ev.Type == "checkpoint":
			rec.checkpoints++
		}
	})
	esp.End()
	tDone := time.Now()
	rec.start, rec.done = t0, tDone
	rec.latency = tDone.Sub(t0).Seconds()
	if err != nil {
		rec.err = err
		return rec
	}
	if tRunning.IsZero() {
		tRunning = tAck
	}
	rec.queueWait, rec.run, rec.state = tRunning.Sub(tAck).Seconds(), tDone.Sub(tRunning).Seconds(), done.State
	rsp := sp.StartChild("cluster result")
	rsp.SetArg("job", info.ID)
	raw, err := get(cl, base+"/jobs/"+info.ID+"/result")
	rsp.End()
	t1 := time.Now()
	rec.fetchResult = t1.Sub(tDone).Seconds()
	if err == nil {
		err = json.Unmarshal(raw, &rec.result)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	csp := sp.StartChild("cluster checkpoint")
	csp.SetArg("job", info.ID)
	ck, err := get(cl, base+"/jobs/"+info.ID+"/checkpoint")
	csp.End()
	rec.fetchCkpt = time.Since(t1).Seconds()
	rec.ckptBytes, rec.err = len(ck), err
	return rec
}

// closedLoop runs two clients against the coordinator until the deadline
// has passed and the mix is at a deck boundary, so every run covers whole
// decks of the same composition; each client submits its next job only
// after the previous one's checkpoint is fetched.
func closedLoop(r *run, cl *http.Client, base string, deadline time.Time) ([]*jobRecord, time.Duration) {
	mix := jobMix(r.seed, 4096)
	var mu sync.Mutex
	var recs []*jobRecord
	next := 0
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		track := r.tr.NewTrack(fmt.Sprintf("client %d", c))
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(mix) || (next%deckSize == 0 && !time.Now().Before(deadline)) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				// A traced run spans every other deck, so spanned and bare
				// jobs have the same composition; the ratio of their run
				// time per member-step is the tracing overhead.
				rec := doJob(r, cl, base, mix[i], r.traced && (i/deckSize)%2 == 0, track)
				mu.Lock()
				rec.deck = i / deckSize
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(t0)
}

// referenceDiags runs the reference model (serial mode, 1 thread) for one
// (level, precision) up to maxSteps and returns the invariants after each
// step, indexed by step count.
func referenceDiags(level int, precision string, maxSteps int) ([]sw.Invariants, error) {
	mod, err := mpas.New(mpas.Options{Level: level, TestCase: mpas.TC5, Mode: mpas.Serial, Precision: precision})
	if err != nil {
		return nil, err
	}
	defer mod.Close()
	out := make([]sw.Invariants, maxSteps+1)
	out[0] = mod.Invariants()
	for i := 1; i <= maxSteps; i++ {
		mod.Step()
		out[i] = mod.Invariants()
	}
	return out, nil
}

// diagMatches compares a job's member-0 final diagnostics with the
// reference run's within a relative band: for float64 jobs only the
// summation order may differ (renumbered jobs), hence a band far below any
// trajectory difference; float32 jobs get the documented float32 band, as
// the energy and enstrophy of float32 ensemble jobs were seen to differ from
// the reference at about 1e-9 relative.
func diagMatches(d *serve.Diag, ref sw.Invariants, band float64) bool {
	if d == nil {
		return false
	}
	pairs := [][2]float64{{d.Mass, ref.Mass}, {d.TotalEnergy, ref.TotalEnergy},
		{d.PotentialEnstrophy, ref.PotentialEnstrophy}, {d.MinH, ref.MinH},
		{d.MaxH, ref.MaxH}, {d.MaxSpeed, ref.MaxSpeed}}
	for _, p := range pairs {
		if math.Abs(p[0]-p[1]) > band*math.Abs(p[1]) {
			return false
		}
	}
	return true
}

// checkJobs applies the output checks to every job: refused, failed or
// incomplete jobs fail, and so does a completed job whose member-0 final
// diagnostics differ from the reference run's.
func checkJobs(r *run, recs []*jobRecord) error {
	sp := r.span("reference runs")
	defer sp.End()
	refs := map[string][]sw.Invariants{}
	for _, rec := range recs {
		key := fmt.Sprintf("%d/%s", rec.spec.Level, rec.spec.Precision)
		if _, ok := refs[key]; ok || rec.err != nil {
			continue
		}
		ref, err := referenceDiags(rec.spec.Level, rec.spec.Precision, mixSteps[len(mixSteps)-1])
		if err != nil {
			return err
		}
		refs[key] = ref
	}
	for _, rec := range recs {
		s := rec.spec
		what := fmt.Sprintf("job level=%d K=%d steps=%d mode=%s precision=%q reorder=%v",
			s.Level, s.Ensemble, s.Steps, s.Mode, s.Precision, s.Reorder)
		switch {
		case rec.refused:
			r.tally.check(false, "%s refused: %v", what, rec.err)
		case rec.err != nil:
			r.tally.check(false, "%s: %v", what, rec.err)
		case rec.state != serve.StateCompleted:
			r.tally.check(false, "%s ended %s", what, rec.state)
		default:
			ref := refs[fmt.Sprintf("%d/%s", s.Level, s.Precision)][s.Steps]
			band := 1e-9
			if s.Precision == "float32" {
				band = conform.Fast32Band * float64(s.Steps+1)
			}
			ok := rec.result.Steps == s.Steps && rec.ckptBytes > 0 && diagMatches(rec.result.Final, ref, band)
			r.tally.check(ok, "%s: result (steps %d, checkpoint %d B, final %+v) differs from the reference run (%+v)",
				what, rec.result.Steps, rec.ckptBytes, rec.result.Final, ref)
		}
	}
	return nil
}

// deckStats accumulates the completed jobs of one deck.
type deckStats struct {
	run, memberSteps float64
	start, done      time.Time // first submit, last "done" event
}

func (d *deckStats) add(rec *jobRecord, memberSteps int) {
	d.run += rec.run
	d.memberSteps += float64(memberSteps)
	if rec.start.Before(d.start) {
		d.start = rec.start
	}
	if rec.done.After(d.done) {
		d.done = rec.done
	}
}

// timerMean is the mean of a named timer summed over registries.
func timerMean(regs []*telemetry.Registry, name string) float64 {
	var total time.Duration
	var n int64
	for _, reg := range regs {
		t := reg.Timer(name)
		total += t.Total()
		n += t.Count()
	}
	if n == 0 {
		return 0
	}
	return total.Seconds() / float64(n)
}

// ensembleRun runs the ensemble-serve loop for budget and sets the serve,
// cluster and ensemble metrics. setups service start-ups are timed; the
// last one serves the loop.
func ensembleRun(r *run, budget time.Duration, setups int) error {
	cl := &http.Client{Timeout: 120 * time.Second}
	defer cl.CloseIdleConnections()
	var svc *service
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if svc != nil {
			svc.close()
		}
		dir, err := os.MkdirTemp(r.outDir, "spool-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		if svc, err = startService(r, cl, dir); err != nil {
			os.RemoveAll(dir)
			return err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer svc.close()
	r.sample("setup_s", setupTimes...)
	r.set("setup_s", median(setupTimes))

	compiles0 := sw.PlanCompileCount()
	recs, wall := closedLoop(r, cl, svc.url, time.Now().Add(budget))
	compiles := sw.PlanCompileCount() - compiles0
	if err := checkJobs(r, recs); err != nil {
		return err
	}

	var latency, queue, runs, submit, result, ckpt []float64
	var traced, bare [2]float64 // run seconds, member-steps
	memberSteps, checkpoints, rejects, done, float64Jobs := 0, 0, 0, 0, 0
	decks := map[int]*deckStats{}
	for _, rec := range recs {
		if rec.refused {
			rejects++
		}
		if rec.err != nil || rec.state != serve.StateCompleted {
			continue
		}
		done++
		k := max(rec.spec.Ensemble, 1)
		memberSteps += k * rec.spec.Steps
		checkpoints += rec.checkpoints
		if rec.spec.Precision != "float32" {
			float64Jobs++
		}
		latency = append(latency, rec.latency)
		side := &bare
		if rec.traced {
			side = &traced
		}
		side[0] += rec.run
		side[1] += float64(k * rec.spec.Steps)
		queue = append(queue, rec.queueWait)
		runs = append(runs, rec.run)
		d := decks[rec.deck]
		if d == nil {
			d = &deckStats{start: rec.start, done: rec.done}
			decks[rec.deck] = d
		}
		d.add(rec, k*rec.spec.Steps)
		submit = append(submit, rec.submit)
		result = append(result, rec.fetchResult)
		ckpt = append(ckpt, rec.fetchCkpt)
	}
	if done == 0 {
		return errors.New("ensemble-serve: no job completed")
	}
	r.sample("serve.job_latency_s", latency...)
	r.sample("serve.run_s", runs...)
	p, ok := tailPercentile(len(latency), 10)
	r.note("ensemble-serve: %d jobs completed of %d submitted in %.1fs; highest percentile with >=10 samples beyond: p%g (%v)",
		done, len(recs), wall.Seconds(), p, ok)
	// Per deck: the mix is bimodal in cost per member-step (two levels), so
	// a median over jobs would sit between the modes, while every deck has
	// the same composition. Medians over decks resist bursts of load.
	var deckStep, deckRate []float64
	for _, d := range decks {
		deckStep = append(deckStep, d.run/d.memberSteps)
		deckRate = append(deckRate, d.memberSteps/d.done.Sub(d.start).Seconds())
	}
	r.sample("step_s", deckStep...)
	r.sample("throughput_per_s", deckRate...)
	r.set("step_s", median(deckStep))
	r.set("throughput_per_s", median(deckRate))
	r.set("serve.member_steps_per_s", float64(memberSteps)/wall.Seconds())
	r.set("serve.job_latency_p50_s", median(latency))
	r.set("serve.job_latency_p90_s", percentile(latency, 90))
	r.set("serve.queue_wait_p50_s", median(queue))
	r.set("serve.queue_wait_p90_s", percentile(queue, 90))
	r.set("serve.run_p50_s", median(runs))
	r.set("serve.model_build_s", timerMean(svc.regs, "serve_model_build_seconds"))
	r.set("serve.checkpoint_s", timerMean(svc.regs, "serve_checkpoint_seconds"))
	r.set("serve.checkpoints_per_job", float64(checkpoints)/float64(done))
	r.set("serve.rejects", float64(rejects))
	r.set("cluster.submit_p50_s", median(submit))
	r.set("cluster.result_p50_s", median(result))
	r.set("cluster.checkpoint_fetch_p50_s", median(ckpt))
	if float64Jobs > 0 {
		r.set("sw.plan_compiles_per_job", float64(compiles)/float64(float64Jobs))
	}
	if traced[1] > 0 && bare[1] > 0 {
		r.set("telemetry.overhead", (traced[0]/traced[1])/(bare[0]/bare[1])-1)
	}
	return nil
}

// runEnsemble is the serving workload: a closed loop of two clients
// against a coordinator fronting two one-job-at-a-time workers.
func runEnsemble(r *run) error {
	if !r.traced {
		return ensembleRun(r, r.budget(1), 3)
	}
	t0 := time.Now()
	m, err := serveMesh()
	if err != nil {
		return err
	}
	r.set("mesh.build_s", time.Since(t0).Seconds())
	if err := profileInProcess(r, m, r.budget(0.15)); err != nil {
		return err
	}
	if err := probeDist(r); err != nil {
		return err
	}
	// Long enough for about 100 jobs, so p90 keeps 10 samples beyond it.
	return ensembleRun(r, r.budget(0.8), 1)
}

// serveMesh builds the mix's largest mesh the way a serve worker does.
func serveMesh() (*mesh.Mesh, error) {
	return mesh.Build(mixLevels[len(mixLevels)-1], mesh.Options{LloydIterations: 2})
}

// probeEnsemble measures the serve and cluster layers with a short run of
// the same loop, for the traced runs of workloads that do not serve.
func probeEnsemble(r *run) error {
	sp := r.span("probe ensemble-serve")
	defer sp.End()
	overhead, hasOverhead := r.values["telemetry.overhead"]
	if err := ensembleRun(r, 3*time.Second, 1); err != nil {
		return err
	}
	if hasOverhead {
		r.set("telemetry.overhead", overhead)
	}
	return nil
}
