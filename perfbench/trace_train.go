package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tracer collects one traced job's per-layer timings from wrappers around
// the modules' public seams. Nothing inside the program is instrumented.
type tracer struct {
	mu     sync.Mutex
	models map[*model.Model]*modelTrace // filled by the wrapped builder

	ingest ingestTrace
}

func newTracer() *tracer {
	return &tracer{models: map[*model.Model]*modelTrace{}}
}

// Leaf layer kinds the nn metrics are reported by.
const (
	kindConv = iota
	kindReLU
	kindMaxPool
	kindBN
	kindLinear
	kindOther
	numKinds
)

// kindNames name the kinds in metric names.
var kindNames = [numKinds]string{"conv", "relu", "maxpool", "bn", "linear", "other"}

func kindOf(l nn.Layer) int {
	switch l.(type) {
	case *nn.Conv2D:
		return kindConv
	case *nn.ReLU, *nn.ReLU6:
		return kindReLU
	case *nn.MaxPool2D:
		return kindMaxPool
	case *nn.BatchNorm2D:
		return kindBN
	case *nn.Linear:
		return kindLinear
	}
	return kindOther
}

// convShape is a convolution's per-image lowering: its geometry and input
// size. The tensor probes rerun Gemm and Im2Col at the costliest shapes.
type convShape struct {
	inC, outC, k, stride, pad, groups, h, w int
}

// modelTrace accumulates one client model's timings. A model is trained by
// one client goroutine, so its leaf wrappers and its strategy wrapper write
// without locks; the tracer reads only after Engine.Run has returned.
type modelTrace struct {
	fwd, bwd [numKinds]time.Duration
	calls    [numKinds]int
	// leaf is all time spent in leaf layers; a TrainStep's self time is its
	// span minus the leaf time it contains.
	leaf time.Duration
	conv map[convShape]time.Duration

	stepsMS              []float64
	step, stepSelf       time.Duration
	afterAggregate, task time.Duration
}

// wrapTree replaces every leaf under l with a timing wrapper, descending
// through the containers the benchmarked models use. Any other container
// stays unwrapped as a whole, so Walk still reaches its children's FLOPs.
func (mt *modelTrace) wrapTree(l nn.Layer) nn.Layer {
	switch c := l.(type) {
	case *nn.Sequential:
		for i, child := range c.Layers {
			c.Layers[i] = mt.wrapTree(child)
		}
		return c
	case *nn.Residual:
		c.Body, c.Shortcut = mt.wrapTree(c.Body), mt.wrapTree(c.Shortcut)
		return c
	}
	visited := 0
	nn.Walk(l, func(nn.Layer) { visited++ })
	if visited > 1 {
		return l
	}
	return mt.wrapLeaf(l)
}

// flopsReporter is the interface model.FLOPsPerSample walks for; its
// result feeds the simulated device time, so a wrapper must keep it.
type flopsReporter interface{ FLOPs() float64 }

// wrapLeaf returns a wrapper that keeps every optional interface the
// program probes on l: FLOPs() and nn.ParamsOnlyBackward.
func (mt *modelTrace) wrapLeaf(l nn.Layer) nn.Layer {
	s := &leafSpan{inner: l, kind: kindOf(l), mt: mt}
	_, flops := l.(flopsReporter)
	_, paramsOnly := l.(nn.ParamsOnlyBackward)
	switch {
	case flops && paramsOnly:
		return flopsParamsOnlySpan{s}
	case flops:
		return flopsSpan{s}
	case paramsOnly:
		return paramsOnlySpan{s}
	}
	return s
}

// leafSpan times one leaf layer's Forward and Backward calls.
type leafSpan struct {
	inner nn.Layer
	kind  int
	mt    *modelTrace
	shape convShape // set on a convolution's forward, for its backward too
}

func (s *leafSpan) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if c, ok := s.inner.(*nn.Conv2D); ok {
		s.shape = convShape{c.InC, c.OutC, c.K, c.Stride, c.Pad, c.Groups, x.Shape[2], x.Shape[3]}
	}
	start := time.Now()
	y := s.inner.Forward(x, train)
	s.record(time.Since(start), &s.mt.fwd)
	return y
}

func (s *leafSpan) Backward(dout *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	dx := s.inner.Backward(dout)
	s.record(time.Since(start), &s.mt.bwd)
	return dx
}

func (s *leafSpan) Params() []*nn.Param { return s.inner.Params() }

func (s *leafSpan) record(d time.Duration, into *[numKinds]time.Duration) {
	into[s.kind] += d
	s.mt.calls[s.kind]++
	s.mt.leaf += d
	if s.kind == kindConv {
		s.mt.conv[s.shape] += d
	}
}

type flopsSpan struct{ *leafSpan }

func (s flopsSpan) FLOPs() float64 { return s.inner.(flopsReporter).FLOPs() }

type paramsOnlySpan struct{ *leafSpan }

func (s paramsOnlySpan) BackwardParamsOnly(dout *tensor.Tensor) {
	start := time.Now()
	s.inner.(nn.ParamsOnlyBackward).BackwardParamsOnly(dout)
	s.record(time.Since(start), &s.mt.bwd)
}

type flopsParamsOnlySpan struct{ *leafSpan }

func (s flopsParamsOnlySpan) FLOPs() float64 { return flopsSpan(s).FLOPs() }

func (s flopsParamsOnlySpan) BackwardParamsOnly(dout *tensor.Tensor) {
	paramsOnlySpan(s).BackwardParamsOnly(dout)
}

// wrapBuild wraps the leaf layers of every model the builder returns and
// registers the model's trace for the strategy wrapper to find.
func (t *tracer) wrapBuild(build func(*tensor.RNG) *model.Model) func(*tensor.RNG) *model.Model {
	return func(rng *tensor.RNG) *model.Model {
		m := build(rng)
		mt := &modelTrace{conv: map[convShape]time.Duration{}}
		m.Net = mt.wrapTree(m.Net)
		t.mu.Lock()
		t.models[m] = mt
		t.mu.Unlock()
		return m
	}
}

// wrapFactory wraps the strategy each client gets in a stepSpan.
func (t *tracer) wrapFactory(f fed.Factory) fed.Factory {
	return func(ctx *fed.ClientCtx) fed.Strategy {
		t.mu.Lock()
		mt := t.models[ctx.Model]
		t.mu.Unlock()
		return &stepSpan{Strategy: f(ctx), mt: mt}
	}
}

// stepSpan times the strategy hooks the client calls; every other method is
// the embedded strategy's own.
type stepSpan struct {
	fed.Strategy
	mt *modelTrace
}

func (s *stepSpan) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	leaf := s.mt.leaf
	start := time.Now()
	loss := s.Strategy.TrainStep(x, labels, classes)
	d := time.Since(start)
	s.mt.stepsMS = append(s.mt.stepsMS, float64(d)/1e6)
	s.mt.step += d
	s.mt.stepSelf += d - (s.mt.leaf - leaf)
	return loss
}

func (s *stepSpan) AfterAggregate(preAgg []float32, ct data.ClientTask) {
	start := time.Now()
	s.Strategy.AfterAggregate(preAgg, ct)
	s.mt.afterAggregate += time.Since(start)
}

func (s *stepSpan) TaskEnd(ct data.ClientTask) {
	start := time.Now()
	s.Strategy.TaskEnd(ct)
	s.mt.task += time.Since(start)
}

// trainTotals merges client model traces.
type trainTotals struct {
	modelTrace
	params int // parameter count of the traced model
}

func newTrainTotals() *trainTotals {
	return &trainTotals{modelTrace: modelTrace{conv: map[convShape]time.Duration{}}}
}

func (tot *trainTotals) add(mt *modelTrace) {
	for k := 0; k < numKinds; k++ {
		tot.fwd[k] += mt.fwd[k]
		tot.bwd[k] += mt.bwd[k]
		tot.calls[k] += mt.calls[k]
	}
	for s, d := range mt.conv {
		tot.conv[s] += d
	}
	tot.stepsMS = append(tot.stepsMS, mt.stepsMS...)
	tot.step += mt.step
	tot.stepSelf += mt.stepSelf
	tot.afterAggregate += mt.afterAggregate
	tot.task += mt.task
}

// addTrain merges the traces of this tracer's client models into tot.
func (t *tracer) addTrain(tot *trainTotals) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for m, mt := range t.models {
		tot.params = m.NumParams()
		tot.add(mt)
	}
}

// topConvShapes returns up to n convolution shapes by time spent, costliest
// first.
func (tot *trainTotals) topConvShapes(n int) []convShape {
	shapes := make([]convShape, 0, len(tot.conv))
	for s := range tot.conv {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(i, j int) bool { return tot.conv[shapes[i]] > tot.conv[shapes[j]] })
	if len(shapes) > n {
		shapes = shapes[:n]
	}
	return shapes
}
