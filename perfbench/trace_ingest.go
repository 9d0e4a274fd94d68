package main

import (
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fed"
)

// ingestTrace collects one traced ingest session's timings. The fold, sink
// and observer wrappers are all called on the asynchronous scheduler's one
// goroutine; the sockets are read and written from several, so their times
// are atomics. Everything is read after Server.Run has returned.
type ingestTrace struct {
	sockRead, sockWrite atomic.Int64 // ns inside the server's net.Conns

	foldsMS, finishMS []float64
	// tailFrom is when the open commit's tail began: FinishRound returning,
	// or, where the fold cannot be wrapped, its commit cut's Save starting.
	tailFrom time.Time
	tailsMS  []float64
	commits  int

	savesMS      []float64
	saveBytes    int64
	savedVersion uint64

	sendsMS []float64 // at the peers
}

// timedListener hands the server connections that time their Read and
// Write calls. Wrapping the conn, not the Transport, keeps every link a
// *fed.WireTransport, which the server's traffic accounting looks for.
type timedListener struct {
	net.Listener
	t *ingestTrace
}

func (t *ingestTrace) wrapListener(ln net.Listener) net.Listener {
	return &timedListener{Listener: ln, t: t}
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, t: l.t}, nil
}

type timedConn struct {
	net.Conn
	t *ingestTrace
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.t.sockRead.Add(int64(time.Since(start)))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.t.sockWrite.Add(int64(time.Since(start)))
	return n, err
}

// foldSpan times the stream aggregator's Accumulate and FinishRound.
type foldSpan struct {
	inner fed.StreamAggregator
	t     *ingestTrace
}

func (t *ingestTrace) wrapFold(agg fed.StreamAggregator) fed.Aggregator {
	return &foldSpan{inner: agg, t: t}
}

func (f *foldSpan) Name() string                              { return f.inner.Name() }
func (f *foldSpan) Aggregate(updates []*fed.Update) []float32 { return f.inner.Aggregate(updates) }
func (f *foldSpan) BeginRound()                               { f.inner.BeginRound() }

func (f *foldSpan) Accumulate(u *fed.Update) {
	start := time.Now()
	f.inner.Accumulate(u)
	f.t.foldsMS = append(f.t.foldsMS, float64(time.Since(start))/1e6)
}

func (f *foldSpan) FinishRound() []float32 {
	start := time.Now()
	g := f.inner.FinishRound()
	f.t.tailFrom = time.Now()
	f.t.finishMS = append(f.t.finishMS, float64(f.t.tailFrom.Sub(start))/1e6)
	return g
}

// roundDone closes the open commit tail; the observer calls it.
func (t *ingestTrace) roundDone() {
	if !t.tailFrom.IsZero() {
		t.tailsMS = append(t.tailsMS, float64(time.Since(t.tailFrom))/1e6)
		t.tailFrom = time.Time{}
	}
}

// sinkSpan times the snapshot store's Save and measures what it wrote.
type sinkSpan struct {
	inner *checkpoint.Store
	t     *ingestTrace
}

// wrapSink wraps the durable workload's store. That server's fold is not
// wrapped, so its commit tail starts at the commit cut's Save, the first
// point after FinishRound the benchmark can see.
func (t *ingestTrace) wrapSink(st *checkpoint.Store) fed.SnapshotSink {
	return &sinkSpan{inner: st, t: t}
}

func (s *sinkSpan) Save(snap *checkpoint.ServerSnapshot) error {
	start := time.Now()
	// A cut carrying a newer version than the last one saved is a commit's
	// write-ahead cut; the others are mid-window, genesis or boundary cuts.
	if snap.Version > s.t.savedVersion {
		s.t.tailFrom = start
	}
	s.t.savedVersion = snap.Version
	err := s.inner.Save(snap)
	s.t.savesMS = append(s.t.savesMS, float64(time.Since(start))/1e6)
	s.t.saveBytes += newestSnapshotSize(s.inner.Dir())
	return err
}

// newestSnapshotSize is the size of the newest snapshot file in a Store
// directory. The Store names them by zero-padded sequence number, so the
// lexically greatest name is the newest.
func newestSnapshotSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var newest os.DirEntry
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") && (newest == nil || e.Name() > newest.Name()) {
			newest = e
		}
	}
	if newest == nil {
		return 0
	}
	info, err := newest.Info()
	if err != nil {
		return 0
	}
	return info.Size()
}
