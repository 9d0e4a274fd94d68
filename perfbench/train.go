package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/tensor"
)

// trainFamily is the dataset of both training workloads.
var trainFamily = data.CIFAR100

// trainJob runs one FedKNOW job on CIFAR100 at CI scale (4 clients, 10
// tasks) with the synchronous scheduler over loopback transports. Set-up is
// the data build, the federation split and the engine's model builds; the
// measured phase is Engine.Run. A non-nil tracer wraps the strategy and the
// model's leaf layers.
func trainJob(w workload, seed uint64, tr *tracer) (job, error) {
	var j job
	t0 := time.Now()
	ds, tasks := trainFamily.Build(data.CI, seed)
	rt := experiments.RuntimeFor(trainFamily, data.CI)
	rt.Rounds, rt.LocalIters = w.rounds, w.iters
	seqs := data.Federate(tasks, rt.Clients, data.CIAlloc(seed+1))
	cfg := fed.Config{
		Method: "FedKNOW", Rounds: rt.Rounds, LocalIters: rt.LocalIters,
		BatchSize: rt.BatchSize, LR: rt.LR, LRDecay: rt.LRDecay,
		NumClasses: ds.NumClasses, Bandwidth: rt.Bandwidth, Seed: seed,
		Parallelism: procs, Scheduler: fed.SchedulerSync,
	}
	build := func(rng *tensor.RNG) *model.Model {
		return model.MustBuild(w.arch, ds.NumClasses, ds.C, ds.H, ds.W, rt.Width, rng)
	}
	factory := experiments.MethodFactory("FedKNOW", data.CI)
	if tr != nil {
		build, factory = tr.wrapBuild(build), tr.wrapFactory(factory)
	}
	e := fed.NewEngine(cfg, device.Jetson20(), seqs, build, factory)
	var commits []time.Time
	e.SetObserver(fed.ObserverFuncs{Round: func(fed.RoundStats) { commits = append(commits, time.Now()) }})

	t1 := time.Now()
	u := readUsage()
	res, err := e.RunContext(context.Background())
	j.run = time.Since(t1)
	j.since(u)
	j.setup = t1.Sub(t0)
	if err != nil {
		return j, fmt.Errorf("%s: %w", w.name, err)
	}

	clients, numTasks := len(seqs), len(tasks)
	j.folds = clients * numTasks * rt.Rounds
	for i := 1; i < len(commits); i++ {
		j.gaps = append(j.gaps, float64(commits[i].Sub(commits[i-1]))/1e6)
	}
	// A client evicted at task t never reports tasks t..end.
	j.attempted = clients * numTasks
	for _, at := range res.DeadAfter {
		j.failed += numTasks - at
	}
	last := res.PerTask[len(res.PerTask)-1]
	j.wireBytes = last.UpBytes + last.DownBytes
	j.digest = trainDigest(res)
	j.problems = checkTrain(w, res, seqs)
	samples := clients * numTasks * rt.Rounds * rt.LocalIters * rt.BatchSize
	j.note = fmt.Sprintf("setup %.4fs run %.3fs cpu %.3fs alloc %.1f MB digest %#016x final_acc %.4f forgetting %.4f chance %.4f samples_per_s %.1f",
		j.setup.Seconds(), j.run.Seconds(), j.cpu.Seconds(), float64(j.allocBytes)/1e6, j.digest,
		last.AvgAccuracy, last.ForgettingRate, chance(seqs), float64(samples)/j.run.Seconds())
	return j, nil
}

// trainDigest hashes the job's outputs: the per-task accuracy matrix, the
// forgetting curve and the communication volume. Sync runs are bitwise
// deterministic, so repetitions under one seed, traced or not, must agree.
func trainDigest(res *fed.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, row := range res.Matrix.Acc {
		for _, a := range row {
			put(math.Float64bits(a))
		}
	}
	for _, tp := range res.PerTask {
		put(math.Float64bits(tp.AvgAccuracy))
		put(math.Float64bits(tp.ForgettingRate))
		put(uint64(tp.UpBytes))
		put(uint64(tp.DownBytes))
	}
	return h.Sum64()
}

// chance is the accuracy of guessing uniformly among each client-task's
// classes (evaluation is masked to them), averaged like AvgAccuracy.
func chance(seqs [][]data.ClientTask) float64 {
	var sum float64
	n := 0
	for _, seq := range seqs {
		for _, ct := range seq {
			sum += 1 / float64(len(ct.Classes))
			n++
		}
	}
	return sum / float64(n)
}

// checkTrain verifies a finished job: every client reported every task and
// the accuracies are valid fractions. Where the workload trains long
// enough to learn (learns), the final accuracy must also beat chance.
func checkTrain(w workload, res *fed.Result, seqs [][]data.ClientTask) []string {
	var problems []string
	if len(res.DeadAfter) > 0 {
		problems = append(problems, fmt.Sprintf("%d clients evicted", len(res.DeadAfter)))
	}
	if len(res.PerTask) != len(seqs[0]) {
		problems = append(problems, fmt.Sprintf("%d task points for %d tasks", len(res.PerTask), len(seqs[0])))
		return problems
	}
	for _, tp := range res.PerTask {
		if !(tp.AvgAccuracy >= 0 && tp.AvgAccuracy <= 1) || !(tp.ForgettingRate >= 0 && tp.ForgettingRate <= 1) {
			problems = append(problems, fmt.Sprintf("task %d: accuracy %v forgetting %v outside [0,1]", tp.TaskIdx, tp.AvgAccuracy, tp.ForgettingRate))
		}
	}
	final := res.PerTask[len(res.PerTask)-1].AvgAccuracy
	if c := chance(seqs); w.learns && final <= c {
		problems = append(problems, fmt.Sprintf("final accuracy %.4f is not above chance %.4f", final, c))
	}
	return problems
}
