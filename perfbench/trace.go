package main

import (
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// traceRun alternates untraced and traced jobs for the time budget (at
// least one of each), requires every job to produce the same output digest,
// and reports the per-layer metrics of the traced jobs plus the probes.
func traceRun(w workload, o options, run func(*tracer) (job, error)) (*report, error) {
	var plain, traced []job
	var tracers []*tracer
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for len(traced) == 0 || time.Since(start)+meanWall(plain)+meanWall(traced) <= budget {
		j, err := run(nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.log, "# untraced job %d: %s\n", len(plain)+1, j.note)
		plain = append(plain, j)
		tr := newTracer()
		if j, err = run(tr); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.log, "# traced job %d: %s\n", len(traced)+1, j.note)
		traced = append(traced, j)
		tracers = append(tracers, tr)
	}

	values := map[string]float64{}
	if w.arch != "" {
		trainLayers(values, tracers, o)
	} else if err := ingestLayers(values, tracers, traced, w, o); err != nil {
		return nil, err
	}
	values["tensor.parallel_ns"], values["tensor.parallel_allocs"] = probeParallel()
	plainRun, tracedRun := medianRun(plain), medianRun(traced)
	values["bench.trace_overhead_share"] = (tracedRun - plainRun) / plainRun

	rep := newReport(append(plain, traced...))
	rep.setMetrics(perLayer, values)
	return rep, nil
}

func medianRun(jobs []job) float64 {
	run := make([]float64, len(jobs))
	for i, j := range jobs {
		run[i] = j.run.Seconds()
	}
	return median(run)
}

// trainLayers fills the core, nn, tensor and qp metrics. Times are per job,
// summed over the clients (which train two at a time).
func trainLayers(values map[string]float64, tracers []*tracer, o options) {
	jobs := float64(len(tracers))
	tot := newTrainTotals()
	for _, tr := range tracers {
		tr.addTrain(tot)
	}
	perJob := func(d time.Duration) float64 { return d.Seconds() / jobs }
	values["core.train_step_ms_p50"] = stats.Percentile(tot.stepsMS, 0.50)
	values["core.train_step_ms_p95"] = stats.Percentile(tot.stepsMS, 0.95)
	values["core.train_steps"] = float64(len(tot.stepsMS)) / jobs
	values["core.train_step_s"] = perJob(tot.step)
	values["core.after_aggregate_s"] = perJob(tot.afterAggregate)
	values["core.task_end_s"] = perJob(tot.task)
	if tot.step > 0 {
		values["core.extra_share"] = tot.stepSelf.Seconds() / tot.step.Seconds()
	}
	values["nn.conv.fwd_s"] = perJob(tot.fwd[kindConv])
	values["nn.conv.bwd_s"] = perJob(tot.bwd[kindConv])
	for kind, name := range kindNames {
		if kind != kindConv {
			values["nn."+name+".s"] = perJob(tot.fwd[kind] + tot.bwd[kind])
		}
		values["nn."+name+".calls"] = float64(tot.calls[kind]) / jobs
	}
	rng := tensor.NewRNG(o.seed).Fork(0x7e)
	for i, s := range tot.topConvShapes(3) {
		gflops, gbps := probeConv(s, rng)
		values[fmt.Sprintf("tensor.gemm_gflops.top%d", i+1)] = gflops
		values[fmt.Sprintf("tensor.im2col_gbps.top%d", i+1)] = gbps
		fmt.Fprintf(o.log, "# conv shape top%d: in %dx%dx%d out %d k %d stride %d pad %d groups %d: %.3fs per job, gemm %.2f GFLOP/s, im2col %.2f GB/s\n",
			i+1, s.inC, s.h, s.w, s.outC, s.k, s.stride, s.pad, s.groups, perJob(tot.conv[s]), gflops, gbps)
	}
	// The last task restores one gradient per earlier task.
	stored := trainFamily.NumTasks - 1
	values["qp.integrate_ms"] = probeQP(o.seed, tot.params, stored)
	fmt.Fprintf(o.log, "# qp probe: k %d of %d stored gradients, n %d\n", qpK, stored, tot.params)
}

// ingestLayers fills the fed and checkpoint metrics. Times are per session.
func ingestLayers(values map[string]float64, tracers []*tracer, traced []job, w workload, o options) error {
	jobs := float64(len(tracers))
	var folds, finish, tails, saves, sends []float64
	var read, write, run time.Duration
	var commits int
	var saveBytes int64
	for i, tr := range tracers {
		t := &tr.ingest
		folds = append(folds, t.foldsMS...)
		finish = append(finish, t.finishMS...)
		tails = append(tails, t.tailsMS...)
		saves = append(saves, t.savesMS...)
		sends = append(sends, t.sendsMS...)
		read += time.Duration(t.sockRead.Load())
		write += time.Duration(t.sockWrite.Load())
		commits += t.commits
		saveBytes += t.saveBytes
		run += traced[i].run
	}
	values["fed.fold_ms_p50"] = stats.Percentile(folds, 0.50)
	values["fed.fold_ms_p95"] = stats.Percentile(folds, 0.95)
	values["fed.folds"] = float64(len(folds)) / jobs
	values["fed.finish_ms"] = median(finish)
	values["fed.commit_tail_ms_p50"] = stats.Percentile(tails, 0.50)
	values["fed.commit_tail_ms_p95"] = stats.Percentile(tails, 0.95)
	values["fed.commits"] = float64(commits) / jobs
	values["fed.sock_read_s"] = read.Seconds() / jobs
	values["fed.sock_write_s"] = write.Seconds() / jobs
	values["fed.peer_send_ms_p50"] = median(sends)
	var err error
	values["fed.encode_ms"], values["fed.decode_ms"], err = probeCodec(o.seed, w.params)
	if err != nil {
		return err
	}
	if len(saves) > 0 {
		var total float64
		for _, s := range saves {
			total += s
		}
		values["checkpoint.save_ms_p50"] = stats.Percentile(saves, 0.50)
		values["checkpoint.save_ms_p95"] = stats.Percentile(saves, 0.95)
		values["checkpoint.saves"] = float64(len(saves)) / jobs
		values["checkpoint.saves_per_commit"] = float64(len(saves)) / float64(commits)
		values["checkpoint.mb_per_save"] = float64(saveBytes) / float64(len(saves)) / 1e6
		values["checkpoint.save_share"] = total / 1e3 / run.Seconds()
	}
	fmt.Fprintf(o.log, "# samples: %d folds, %d commit tails, %d saves, %d peer sends\n", len(folds), len(tails), len(saves), len(sends))
	return nil
}
