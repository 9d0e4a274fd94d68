// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time budget through the public APIs of the FedKNOW
// reproduction, checks that the outputs are correct, and prints one JSON
// result as the last line of standard output:
//
//	perfbench --workload train-6cnn --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with no
// instrumentation installed. With --trace 1 the workload alternates untraced
// jobs and jobs with timing wrappers around the seams of each module
// (strategy hooks, leaf layers, the stream aggregator, the snapshot sink,
// the server's sockets), followed by probes of tensor, qp and the fed codec
// at the workload's own shapes; the result carries the per-layer metrics.
// METRICS.md maps each per-layer metric to the end-to-end metric it should
// move.
//
// run.sh builds this package and runs it from the root of a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// procs is the core budget every workload is sized for: GOMAXPROCS, the
// tensor kernel-thread budget, engine Parallelism and ingest peer
// connections are each set to it, whatever the host has, so results from
// different hosts describe the same configuration.
const procs = 2

// metricSpec names one reported metric. The lists below are the contract
// BENCHMARK.json declares; TestSpecsMatchBenchmarkJSON keeps them in step.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a --trace 0 run reports, for every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"updates_per_s", "1/s", "higher"},
	{"global_gap_p50_ms", "ms", "lower"},
	{"global_gap_p95_ms", "ms", "lower"},
	{"wire_mb", "MB", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"success_rate", "fraction", "higher"},
}

// perLayer is what a --trace 1 run reports, for every workload. A metric
// whose layer the workload does not run (the checkpoint layer on ingest,
// nn on the ingest workloads, fed on training) reads 0.
var perLayer = []metricSpec{
	{"core.train_step_ms_p50", "ms", "lower"},
	{"core.train_step_ms_p95", "ms", "lower"},
	{"core.train_steps", "count", "higher"},
	{"core.train_step_s", "s", "lower"},
	{"core.after_aggregate_s", "s", "lower"},
	{"core.task_end_s", "s", "lower"},
	{"core.extra_share", "fraction", "lower"},
	{"nn.conv.fwd_s", "s", "lower"},
	{"nn.conv.bwd_s", "s", "lower"},
	{"nn.conv.calls", "count", "lower"},
	{"nn.relu.s", "s", "lower"},
	{"nn.relu.calls", "count", "lower"},
	{"nn.maxpool.s", "s", "lower"},
	{"nn.maxpool.calls", "count", "lower"},
	{"nn.bn.s", "s", "lower"},
	{"nn.bn.calls", "count", "lower"},
	{"nn.linear.s", "s", "lower"},
	{"nn.linear.calls", "count", "lower"},
	{"nn.other.s", "s", "lower"},
	{"nn.other.calls", "count", "lower"},
	{"tensor.gemm_gflops.top1", "GFLOP/s", "higher"},
	{"tensor.gemm_gflops.top2", "GFLOP/s", "higher"},
	{"tensor.gemm_gflops.top3", "GFLOP/s", "higher"},
	{"tensor.im2col_gbps.top1", "GB/s", "higher"},
	{"tensor.im2col_gbps.top2", "GB/s", "higher"},
	{"tensor.im2col_gbps.top3", "GB/s", "higher"},
	{"tensor.parallel_ns", "ns", "lower"},
	{"tensor.parallel_allocs", "count", "lower"},
	{"qp.integrate_ms", "ms", "lower"},
	{"fed.fold_ms_p50", "ms", "lower"},
	{"fed.fold_ms_p95", "ms", "lower"},
	{"fed.folds", "count", "higher"},
	{"fed.finish_ms", "ms", "lower"},
	{"fed.commit_tail_ms_p50", "ms", "lower"},
	{"fed.commit_tail_ms_p95", "ms", "lower"},
	{"fed.commits", "count", "higher"},
	{"fed.sock_write_s", "s", "lower"},
	{"fed.sock_read_s", "s", "lower"},
	{"fed.encode_ms", "ms", "lower"},
	{"fed.decode_ms", "ms", "lower"},
	{"fed.peer_send_ms_p50", "ms", "lower"},
	{"checkpoint.save_ms_p50", "ms", "lower"},
	{"checkpoint.save_ms_p95", "ms", "lower"},
	{"checkpoint.saves", "count", "lower"},
	{"checkpoint.saves_per_commit", "count", "lower"},
	{"checkpoint.mb_per_save", "MB", "lower"},
	{"checkpoint.save_share", "fraction", "lower"},
	{"bench.trace_overhead_share", "fraction", "lower"},
}

// workload is one benchmark input set. Training workloads run a FedKNOW job
// in-process; ingest workloads drive an asynchronous wire server with
// scripted peers.
type workload struct {
	name string
	// arch, rounds and iters size a training job (empty arch: ingest).
	arch          string
	rounds, iters int
	// learns marks a training job long enough to learn: its final accuracy
	// must beat chance. MobileNetV2 at CI scale stays at chance even at
	// 3 rounds x 8 iterations (METRICS.md), so train-mobilenet is not held
	// to it.
	learns bool
	// params is the length of every ingest upload.
	params int
	// durable installs a checkpoint.Store as the ingest server's snapshot
	// sink.
	durable bool
}

// workloads are sized for a 2-core host; BENCHMARK.json records why each
// was chosen.
var workloads = []workload{
	{name: "train-6cnn", arch: "SixCNN", rounds: 2, iters: 8, learns: true},
	{name: "train-mobilenet", arch: "MobileNetV2", rounds: 1, iters: 2},
	{name: "ingest", params: 1 << 20},
	// Every accepted fold of a durable session writes and fsyncs a snapshot
	// of about 6 bytes per parameter. With 1 Mi parameters a session wrote
	// 1.4 GB, and the run's time followed the shared disk's throughput;
	// smaller uploads leave it bound by the Save path itself.
	{name: "ingest-durable", params: 1 << 16, durable: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the inputs of one benchmark run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// scratch is where ingest-durable keeps its snapshot directories.
	scratch string
	// log receives the human-readable lines printed before the result.
	log io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// job is what one measured repetition of a workload yields.
type job struct {
	setup, run time.Duration
	cpu        time.Duration
	allocBytes uint64
	// folds is the number of uploads the server folded; gaps the intervals
	// between successive global models (ingest: at each peer; training: at
	// the server's commits, which every client waits on).
	folds     int
	gaps      []float64 // ms
	wireBytes int64
	// attempted and failed count client-task reports (training) or uploads
	// (ingest).
	attempted, failed int
	digest            uint64
	// problems lists failed output checks; an empty list means correct.
	problems []string
	note     string
}

// usage is a point-in-time reading of process CPU time and allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// since fills a job's measured-phase CPU and allocation from a reading taken
// when the phase began.
func (j *job) since(u usage) {
	now := readUsage()
	j.cpu = now.cpu - u.cpu
	j.allocBytes = now.alloc - u.alloc
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }

// raceEnabled reports whether the binary was built with -race, whose timings
// describe the detector rather than the program.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// configure pins the core budget for one workload and returns a function
// restoring tensor's process-global kernel budget and GOMAXPROCS.
func configure() (restore func()) {
	prevProcs := runtime.GOMAXPROCS(procs)
	prevThreads := tensor.KernelThreads()
	tensor.SetKernelThreads(procs)
	return func() {
		tensor.SetKernelThreads(prevThreads)
		runtime.GOMAXPROCS(prevProcs)
	}
}

// runWorkload runs w for the time budget and returns its report.
func runWorkload(w workload, o options) (*report, error) {
	defer configure()()
	fmt.Fprintf(o.log, "# perfbench workload=%s seed=%d seconds=%g trace=%t cores=%d gomaxprocs=%d kernel_threads=%d parallelism=%d go=%s\n",
		w.name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		tensor.KernelThreads(), procs, runtime.Version())
	run := func(tr *tracer) (job, error) {
		if w.arch != "" {
			return trainJob(w, o.seed, tr)
		}
		return ingestJob(w, o, tr)
	}
	if o.trace {
		return traceRun(w, o, run)
	}
	var jobs []job
	start := time.Now()
	for len(jobs) == 0 || time.Since(start)+meanWall(jobs) <= time.Duration(o.seconds*float64(time.Second)) {
		j, err := run(nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.log, "# job %d: %s\n", len(jobs)+1, j.note)
		jobs = append(jobs, j)
	}
	return endToEndReport(jobs, o.log), nil
}

// meanWall is the mean set-up plus measured time of the jobs so far, the
// estimate of what one more job costs.
func meanWall(jobs []job) time.Duration {
	if len(jobs) == 0 {
		return 0
	}
	var total time.Duration
	for _, j := range jobs {
		total += j.setup + j.run
	}
	return total / time.Duration(len(jobs))
}

// newReport sums the jobs' operation counts and checks their outputs:
// every job must pass its own checks, and every repetition of a workload
// under one seed, traced or not, must produce the same output digest. The
// caller fills in the metrics.
func newReport(jobs []job) *report {
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	for i, j := range jobs {
		rep.Attempted += j.attempted
		rep.Failed += j.failed
		problems := j.problems
		if j.digest != jobs[0].digest {
			problems = append(problems, fmt.Sprintf("output digest %#x differs from job 1's %#x", j.digest, jobs[0].digest))
		}
		for _, p := range problems {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: job %d: check failed: %s\n", i+1, p)
		}
	}
	return rep
}

// setMetrics reports each spec's value from values.
func (rep *report) setMetrics(specs []metricSpec, values map[string]float64) {
	for _, s := range specs {
		rep.Metrics[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
}

func endToEndReport(jobs []job, log io.Writer) *report {
	var setup, run, cpu, alloc, rate, wire, gaps []float64
	for _, j := range jobs {
		setup = append(setup, j.setup.Seconds())
		run = append(run, j.run.Seconds())
		cpu = append(cpu, j.cpu.Seconds())
		alloc = append(alloc, float64(j.allocBytes)/1e6)
		rate = append(rate, float64(j.folds)/j.run.Seconds())
		wire = append(wire, float64(j.wireBytes)/1e6)
		gaps = append(gaps, j.gaps...)
	}
	rep := newReport(jobs)
	rep.setMetrics(endToEnd, map[string]float64{
		"setup_s":           median(setup),
		"run_s":             median(run),
		"updates_per_s":     median(rate),
		"global_gap_p50_ms": stats.Percentile(gaps, 0.50),
		"global_gap_p95_ms": stats.Percentile(gaps, 0.95),
		"wire_mb":           median(wire),
		"cpu_s":             median(cpu),
		"peak_rss_mb":       peakRSSMB(),
		"alloc_mb":          median(alloc),
		"success_rate":      1 - float64(rep.Failed)/float64(rep.Attempted),
	})
	fmt.Fprintf(log, "# global gaps: %d samples over %d jobs\n", len(gaps), len(jobs))
	return rep
}

func printReport(w io.Writer, rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from untraced runs")
	flag.Parse()
	if raceEnabled() {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to report from a -race build")
		os.Exit(2)
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := runWorkload(w, options{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		scratch: filepath.Join(".bench_build", "scratch"),
		log:     os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
