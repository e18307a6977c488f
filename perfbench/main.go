// Command perfbench is the repository benchmark: it runs one named
// workload from a seed, checks the program's outputs, and prints one JSON
// object as its last line of standard output.
//
//	perfbench -workload bigmesh-l8 -seed 1 -seconds 20 -trace 0 \
//	    -swrank .bench_build/bin/swrank -out .bench_build/perfbench
//
// With -trace 0 the object carries the end-to-end metrics, measured with
// tracing off; with -trace 1 it carries the per-layer metrics, measured in
// a separate run that records a span around every layer call and writes
// them as a Chrome trace under -out. perfbench/run.py builds the binaries
// and is the command BENCHMARK.json names. NOTES.md explains the workloads,
// the metrics and what each one should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// metricSpec is one reported metric: its unit and whether it belongs to the
// end-to-end set (untraced run) or the per-layer set (traced run).
type metricSpec struct {
	name, unit string
	endToEnd   bool
}

var kernels = []string{"compute_tend", "compute_solve_diagnostics",
	"mpas_reconstruct", "accumulative_update", "compute_next_substep_state"}

// modeNames are the step modes timed in-process, in their base order.
var modeNames = []string{"serial", "plan", "taskplan", "taskplan_reorder", "fast32"}

// metricSpecs lists every metric the benchmark prints; BENCHMARK.json lists
// the same names and units (metrics_test.go keeps the two in step).
func metricSpecs() []metricSpec {
	e := func(name, unit string) metricSpec { return metricSpec{name, unit, true} }
	l := func(name, unit string) metricSpec { return metricSpec{name, unit, false} }
	specs := []metricSpec{
		e("setup_s", "s"),
		e("step_s", "s"),
		e("throughput_per_s", "1/s"),
		e("peak_rss_mb", "MB"),

		l("error_rate", "fraction"),
		l("mesh.build_s", "s"),
		l("mesh.reorder_s", "s"),
		l("mesh.pack_csr_s", "s"),
		l("mesh.neighbor_dist_before", "count"),
		l("mesh.neighbor_dist_after", "count"),
		l("sw.compile_plan_s", "s"),
		l("sw.compile_taskplan_s", "s"),
		l("sw.compile_fast32_s", "s"),
	}
	for _, m := range modeNames {
		specs = append(specs, l("sw.step_s."+m, "s"))
	}
	for _, k := range kernels {
		specs = append(specs,
			l("sw.kernel."+k+".serial_s", "s"),
			l("sw.kernel."+k+".plan_s", "s"),
			l("sw.kernel."+k+".plan_gbps", "GB/s"))
	}
	specs = append(specs,
		l("sw.step_gbps.plan", "GB/s"),
		l("sw.step_gbps.taskplan", "GB/s"),
		l("sw.step_gbps.fast32", "GB/s"),
		l("sw.fusion_saving_s", "s"),
		l("sw.plan_ops", "count"),
		l("sw.elided_ops", "count"),
		l("sw.plan_compiles_per_job", "count"),
		l("par.barriers_per_step", "count"),
		l("par.tasks", "count"),
		l("par.edges", "count"),
		l("par.steals_per_step", "count"),
		l("par.idle_s_per_step", "s"),
		l("par.region_barrier_us", "us"),
		l("dist.serial_step_s", "s"),
		l("dist.step_s.plan", "s"),
		l("dist.step_s.taskplan", "s"),
		l("dist.halo_bytes_per_step", "count"),
		l("dist.wait_s_per_step.plan", "s"),
		l("dist.wait_s_per_step.taskplan", "s"),
		l("dist.overlap_efficiency.plan", "fraction"),
		l("dist.overlap_efficiency.taskplan", "fraction"),
		l("dist.parallel_efficiency", "fraction"),
		l("halo.pack_us", "us"),
		l("halo.unpack_us", "us"),
		l("serve.member_steps_per_s", "1/s"),
		l("serve.job_latency_p50_s", "s"),
		l("serve.job_latency_p90_s", "s"),
		l("serve.queue_wait_p50_s", "s"),
		l("serve.queue_wait_p90_s", "s"),
		l("serve.run_p50_s", "s"),
		l("serve.model_build_s", "s"),
		l("serve.checkpoint_s", "s"),
		l("serve.checkpoints_per_job", "count"),
		l("serve.rejects", "count"),
		l("cluster.submit_p50_s", "s"),
		l("cluster.result_p50_s", "s"),
		l("cluster.checkpoint_fetch_p50_s", "s"),
		l("telemetry.overhead", "fraction"),
	)
	return specs
}

// exactCounts are the per-layer counts that must repeat exactly across runs
// of one commit on one machine; a run that reads a different value than an
// earlier run recorded fails loudly.
var exactCounts = []string{"par.barriers_per_step", "par.tasks", "par.edges",
	"sw.plan_ops", "sw.elided_ops", "dist.halo_bytes_per_step", "sw.plan_compiles_per_job"}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	swrank   string
	outDir   string

	// tr records the benchmark's spans in a traced run; nil otherwise (the
	// telemetry span API is nil-safe, so call sites need no guard).
	tr    *telemetry.Tracer
	tally tally
	// values holds every metric measured, by name.
	values map[string]float64
	// samples keeps the raw samples behind each timing for the run record.
	samples map[string][]float64
	// notes are free-form lines added to the run record.
	notes []string
}

func (r *run) set(name string, v float64)        { r.values[name] = v }
func (r *run) sample(name string, vs ...float64) { r.samples[name] = append(r.samples[name], vs...) }
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
func (r *run) span(name string) *telemetry.Span { return r.tr.StartSpan(name) }
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}
func (r *run) deadline(share float64) time.Time { return time.Now().Add(r.budget(share)) }

var workloads = map[string]func(*run) error{
	"bigmesh-l8":     runBigmesh,
	"ensemble-serve": runEnsemble,
	"dist-l7":        runDist,
}

func main() {
	r := &run{values: map[string]float64{}, samples: map[string][]float64{}}
	var traceFlag int
	flag.StringVar(&r.workload, "workload", "", "workload: bigmesh-l8, ensemble-serve or dist-l7")
	flag.Int64Var(&r.seed, "seed", 1, "workload seed")
	flag.Float64Var(&r.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&r.swrank, "swrank", "", "path to the swrank binary")
	flag.StringVar(&r.outDir, "out", ".bench_build/perfbench", "directory for run records and traces")
	flag.Parse()
	if err := mainErr(r, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(r *run, traceFlag int) error {
	fn, ok := workloads[r.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", r.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if r.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	r.traced = traceFlag == 1
	if r.traced {
		r.tr = telemetry.NewTracer()
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	prov := provenance(r)
	if err := fn(r); err != nil {
		return err
	}
	peak := maxRSSMB()
	r.set("peak_rss_mb", peak)
	r.set("error_rate", r.tally.errorRate())
	checkExactCounts(r, prov["source_sha256"])

	res := result{Correct: r.tally.failed() == 0, Attempted: r.tally.attempted,
		Failed: r.tally.failed(), Metrics: map[string]metricValue{}}
	for _, sp := range metricSpecs() {
		if sp.endToEnd == r.traced {
			continue
		}
		v, ok := r.values[sp.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", sp.name)
		}
		if sp.endToEnd && v <= 0 {
			return fmt.Errorf("end-to-end metric %s reads %v", sp.name, v)
		}
		res.Metrics[sp.name] = metricValue{Value: v, Unit: sp.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	if err := writeRecord(r, prov, res); err != nil {
		return err
	}
	if r.traced {
		if err := writeTrace(r); err != nil {
			return err
		}
	}
	if !res.Correct {
		r.logf("OUTPUT CHECKS FAILED: %s", &r.tally)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func recordBase(r *run) string {
	kind := "e2e"
	if r.traced {
		kind = "traced"
	}
	return filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-%s", r.workload, r.seed, kind))
}

// writeRecord stores the whole run — provenance, every value, every raw
// sample, failed checks included — next to the printed result, and echoes
// provenance and any failure on standard output ahead of the result line.
func writeRecord(r *run, prov map[string]any, res result) error {
	summary := map[string]any{}
	for name, xs := range r.samples {
		q1, q3 := quartiles(xs)
		summary[name] = map[string]any{"n": len(xs), "median": median(xs), "q1": q1, "q3": q3}
	}
	rec := map[string]any{
		"provenance": prov,
		"result":     res,
		"values":     r.values,
		"samples":    r.samples,
		"summary":    summary,
		"failures":   r.tally.failures,
		"notes":      r.notes,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := recordBase(r) + ".json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov, "record": path,
		"failures": r.tally.failures, "notes": r.notes})
	fmt.Println(string(line))
	return nil
}

func writeTrace(r *run) error {
	f, err := os.Create(recordBase(r) + ".trace.json")
	if err != nil {
		return err
	}
	if err := r.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxRSSMB is the peak resident set of this process or of its largest
// waited-for descendant (the swrank ranks), in MB.
func maxRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024 // Linux reports KiB
}

// checkExactCounts compares this run's exact counts with the ones recorded
// by earlier runs of the same source on the same machine shape, records new
// ones, and counts every mismatch as a failed check.
func checkExactCounts(r *run, digest any) {
	path := filepath.Join(r.outDir, "exact-counts.json")
	all := map[string]map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &all)
	}
	key := fmt.Sprintf("%v/%s/nproc=%d", digest, r.workload, nproc())
	known := all[key]
	if known == nil {
		known = map[string]float64{}
		all[key] = known
	}
	for _, name := range exactCounts {
		v, ok := r.values[name]
		if !ok {
			continue
		}
		if prev, seen := known[name]; seen {
			if prev != v {
				r.logf("EXACT COUNT CHANGED: %s reads %v, an earlier run of this source read %v", name, v, prev)
			}
			r.tally.check(prev == v, "exact count %s: %v, earlier run %v", name, v, prev)
			continue
		}
		known[name] = v
	}
	if data, err := json.MarshalIndent(all, "", "  "); err == nil {
		_ = os.WriteFile(path, append(data, '\n'), 0o644)
	}
}
