package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fed"
	"repro/internal/tensor"
)

// The ingest cohort: procs scripted peers, each uploading ingestUploads
// copies of one fixed dense vector of the workload's params (what
// Client.trainAndUpload sends) to an asynchronous server committing every
// ingestK folds. Each peer receives ingestUploads*procs/ingestK commits plus
// the task-final global, so one session yields at least 200 global gaps.
const (
	ingestUploads = 110
	ingestK       = 2
)

// peerVectors are the cohort's uploads and, per coordinate, the [min, max]
// band every weighted mean of them lies in, widened by float32 rounding.
type peerVectors struct {
	vecs   [][]float32
	lo, hi []float32
}

// makePeerVectors draws each peer's vector from tensor.NewRNG(seed).
func makePeerVectors(seed uint64, peers, n int) peerVectors {
	root := tensor.NewRNG(seed)
	pv := peerVectors{vecs: make([][]float32, peers), lo: make([]float32, n), hi: make([]float32, n)}
	for i := range pv.vecs {
		pv.vecs[i] = make([]float32, n)
		root.Fork(uint64(i+1)).FillNorm(pv.vecs[i], 0.05)
	}
	for j := 0; j < n; j++ {
		lo, hi := pv.vecs[0][j], pv.vecs[0][j]
		for _, v := range pv.vecs[1:] {
			lo, hi = min(lo, v[j]), max(hi, v[j])
		}
		// A weighted mean accumulated in float32 and scaled once is off by
		// a few units in the last place of the largest magnitude.
		tol := 1e-6 * max(float32(math.Abs(float64(lo))), float32(math.Abs(float64(hi))))
		pv.lo[j], pv.hi[j] = lo-tol, hi+tol
	}
	return pv
}

// outside returns the first coordinate of g outside the band, or -1.
func (pv peerVectors) outside(g []float32) int {
	if len(g) != len(pv.lo) {
		return 0
	}
	for j, v := range g {
		if !(v >= pv.lo[j] && v <= pv.hi[j]) {
			return j
		}
	}
	return -1
}

// peerResult is what one scripted peer observed.
type peerResult struct {
	arrivals  []time.Time // every GlobalModel, the task-final one included
	versions  []uint64    // non-final versions, in arrival order
	final     bool
	finalVer  uint64
	outOfBand int // globals with a coordinate outside the peers' band
	sendsMS   []float64
	err       error
}

// runPeer scripts one wire client: dial, take the task's RoundStart, upload
// its vector ingestUploads times with BaseVersion tracking the newest global
// received, answer the task-final global with RoundEnd, and wait for the
// server to close the link. A reader goroutine drains every broadcast as it
// lands, so uploads pipeline under TCP backpressure: a closed loop whose
// rate the server sets.
func runPeer(addr string, id int, pv peerVectors, timeSends bool) peerResult {
	fail := func(err error) peerResult {
		return peerResult{err: fmt.Errorf("peer %d: %w", id, err)}
	}
	tr, err := fed.DialWith(addr, id, 0, fed.WireOptions{})
	if err != nil {
		return fail(err)
	}
	defer tr.Close()
	msg, err := tr.Recv()
	if err != nil {
		return fail(err)
	}
	if _, ok := msg.(*fed.RoundStart); !ok {
		return fail(fmt.Errorf("got %T, want *fed.RoundStart", msg))
	}
	var latest atomic.Uint64
	readDone := make(chan error, 1)
	var got peerResult // written by the reader until it sends on readDone
	go func() {
		for {
			msg, err := tr.Recv()
			if err != nil {
				readDone <- err
				return
			}
			gm, ok := msg.(*fed.GlobalModel)
			if !ok {
				readDone <- fmt.Errorf("got %T, want *fed.GlobalModel", msg)
				return
			}
			got.arrivals = append(got.arrivals, time.Now())
			if pv.outside(gm.Params) >= 0 {
				got.outOfBand++
			}
			if gm.TaskFinal {
				got.final, got.finalVer = true, gm.Version
				readDone <- nil
				return
			}
			got.versions = append(got.versions, gm.Version)
			latest.Store(gm.Version)
		}
	}()
	var sends []float64
	for r := 0; r < ingestUploads; r++ {
		u := &fed.Update{ClientID: id, Participating: true, Weight: float64(id + 1),
			Params: pv.vecs[id], BaseVersion: latest.Load()}
		start := time.Now()
		if err := tr.Send(u); err != nil {
			return fail(fmt.Errorf("upload %d: %w", r, err))
		}
		if timeSends {
			sends = append(sends, float64(time.Since(start))/1e6)
		}
	}
	if err := <-readDone; err != nil {
		return fail(err)
	}
	got.sendsMS = sends
	if err := tr.Send(&fed.RoundEnd{ClientID: id, EvalAccs: []float64{1}}); err != nil {
		return fail(fmt.Errorf("round-end: %w", err))
	}
	// The server closes every link when its run ends; leaving first would
	// read as an eviction of a peer whose work is already accounted.
	_, _ = tr.Recv() // the error is the close this waits for
	return got
}

// ingestJob runs one session of the ingest cohort. Set-up is opening the
// snapshot store (ingest-durable), the vector generation, listener, dials,
// handshakes and server construction; the measured phase is Server.Run
// until every peer has finished.
func ingestJob(w workload, o options, tr *tracer) (job, error) {
	var j job
	t0 := time.Now()
	var store *checkpoint.Store
	if w.durable {
		if err := os.MkdirAll(o.scratch, 0o755); err != nil {
			return j, err
		}
		dir, err := os.MkdirTemp(o.scratch, "ckpt-")
		if err != nil {
			return j, err
		}
		defer os.RemoveAll(dir)
		if store, err = checkpoint.OpenStore(dir, 1, 0); err != nil {
			return j, err
		}
	}
	pv := makePeerVectors(o.seed, procs, w.params)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return j, err
	}
	var ln net.Listener = inner
	if tr != nil {
		ln = tr.ingest.wrapListener(inner)
	}
	peers := make([]peerResult, procs)
	var wg sync.WaitGroup
	for id := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peers[id] = runPeer(inner.Addr().String(), id, pv, tr != nil)
			if peers[id].err != nil {
				inner.Close() // a peer that never connected must not leave ServeWith waiting
			}
		}()
	}
	links, err := fed.ServeWith(ln, procs, 0, fed.WireOptions{})
	inner.Close()
	if err != nil {
		wg.Wait()
		return j, fmt.Errorf("serve: %w", err)
	}

	var agg fed.Aggregator // nil: the server's default SparseFedAvg
	if tr != nil && !w.durable {
		// Wrapping the fold hides the aggregator's window export, so the
		// durable workload keeps the server's own aggregator.
		agg = tr.ingest.wrapFold(&fed.SparseFedAvg{})
	}
	var logged atomic.Int64
	srv := fed.NewServer(fed.ServerConfig{
		Method: "ingest", NumTasks: 1, Rounds: ingestUploads,
		Scheduler: fed.SchedulerAsync,
		Async:     fed.AsyncConfig{CommitEvery: ingestK},
		Seed:      o.seed,
		Logf: func(format string, args ...any) {
			logged.Add(1)
			fmt.Fprintf(os.Stderr, "perfbench: server: "+format+"\n", args...)
		},
	}, agg, links)
	if store != nil {
		var sink fed.SnapshotSink = store
		if tr != nil {
			sink = tr.ingest.wrapSink(store)
		}
		srv.SetSnapshots(sink)
	}
	var folded, commits int
	srv.SetObserver(fed.ObserverFuncs{Round: func(s fed.RoundStats) {
		folded += s.Participants
		if s.Participants > 0 {
			commits++
		}
		if tr != nil {
			tr.ingest.roundDone()
		}
	}})

	t1 := time.Now()
	u := readUsage()
	_, runErr := srv.Run(context.Background())
	wg.Wait()
	j.run = time.Since(t1)
	j.since(u)
	j.setup = t1.Sub(t0)
	if runErr != nil {
		return j, fmt.Errorf("%s: server: %w", w.name, runErr)
	}
	for _, p := range peers {
		if p.err != nil {
			return j, fmt.Errorf("%s: %w", w.name, p.err)
		}
	}

	sent, recv := srv.WireTraffic()
	j.wireBytes = sent + recv
	j.folds = folded
	j.attempted = procs * ingestUploads
	j.failed = j.attempted - folded
	for _, p := range peers {
		for i := 1; i < len(p.arrivals); i++ {
			j.gaps = append(j.gaps, float64(p.arrivals[i].Sub(p.arrivals[i-1]))/1e6)
		}
		if tr != nil {
			tr.ingest.sendsMS = append(tr.ingest.sendsMS, p.sendsMS...)
		}
	}
	if tr != nil {
		tr.ingest.commits += commits
	}
	j.problems = checkIngest(peers, folded, commits, srv.Version())
	if logged.Load() > 0 {
		j.problems = append(j.problems, fmt.Sprintf("server logged %d operational lines", logged.Load()))
	}
	if store != nil {
		snap, err := store.Load()
		switch {
		case err != nil:
			j.problems = append(j.problems, fmt.Sprintf("snapshot load: %v", err))
		case snap == nil || snap.Version != srv.Version():
			j.problems = append(j.problems, fmt.Sprintf("newest snapshot does not hold the last broadcast version %d", srv.Version()))
		}
	}
	j.digest = ingestDigest(peers, folded, commits, srv.Version(), sent, recv)
	j.note = fmt.Sprintf("setup %.4fs run %.3fs cpu %.3fs alloc %.1f MB digest %#016x folded %d commits %d wire %.1f MB",
		j.setup.Seconds(), j.run.Seconds(), j.cpu.Seconds(), float64(j.allocBytes)/1e6, j.digest,
		folded, commits, float64(j.wireBytes)/1e6)
	return j, nil
}

// checkIngest verifies a session: the server folded every upload and
// committed once per ingestK of them; every peer saw strictly increasing
// versions ending at the server's, every commit, a task-final global, and no
// global outside the peers' band.
func checkIngest(peers []peerResult, folded, commits int, version uint64) []string {
	var problems []string
	want := len(peers) * ingestUploads
	if folded != want || commits != want/ingestK {
		problems = append(problems, fmt.Sprintf("server folded %d uploads in %d commits, want %d in %d", folded, commits, want, want/ingestK))
	}
	for id, p := range peers {
		for i := 1; i < len(p.versions); i++ {
			if p.versions[i] <= p.versions[i-1] {
				problems = append(problems, fmt.Sprintf("peer %d: version %d after %d", id, p.versions[i], p.versions[i-1]))
				break
			}
		}
		if len(p.versions) != commits {
			problems = append(problems, fmt.Sprintf("peer %d: received %d of %d commits", id, len(p.versions), commits))
		}
		if !p.final || p.finalVer != version {
			problems = append(problems, fmt.Sprintf("peer %d: task-final global missing or at version %d, server at %d", id, p.finalVer, version))
		}
		if p.outOfBand > 0 {
			problems = append(problems, fmt.Sprintf("peer %d: %d globals outside the peers' [min, max] band", id, p.outOfBand))
		}
	}
	return problems
}

// ingestDigest hashes what a session must reproduce whatever the arrival
// order: the fold and commit counts, the version each peer saw, and the
// bytes on the wire. (The globals' bits depend on which uploads share a
// commit window; the band check covers them.)
func ingestDigest(peers []peerResult, folded, commits int, version uint64, sent, recv int64) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, folded, commits, version, sent, recv)
	for _, p := range peers {
		fmt.Fprint(h, p.versions, p.finalVer)
	}
	return h.Sum64()
}
