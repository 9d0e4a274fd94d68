package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/tensor"
)

// timeOp returns fn's median time per call over five batches, each running
// fn until it has taken at least 20 ms.
func timeOp(fn func()) time.Duration {
	fn() // warm caches and lazily built scratch
	per := make([]float64, 5)
	for b := range per {
		calls := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			fn()
			calls++
		}
		per[b] = float64(time.Since(start)) / float64(calls)
	}
	return time.Duration(median(per))
}

// probeConv times tensor.Gemm and tensor.Im2Col at one convolution's
// per-image lowering, the calls Conv2D.Forward makes for each image: one
// Gemm per group over (outC/groups) x (inC/groups*k*k) x (outH*outW), after
// one Im2Col into the column matrix.
func probeConv(s convShape, rng *tensor.RNG) (gflops, gbps float64) {
	outH := tensor.ConvOutSize(s.h, s.k, s.stride, s.pad)
	outW := tensor.ConvOutSize(s.w, s.k, s.stride, s.pad)
	m, k, n := s.outC/s.groups, s.inC/s.groups*s.k*s.k, outH*outW
	img := make([]float32, s.inC*s.h*s.w)
	wts := make([]float32, s.outC*k)
	cols := make([]float32, s.inC*s.k*s.k*n)
	out := make([]float32, s.outC*n)
	rng.FillNorm(img, 1)
	rng.FillNorm(wts, 0.1)
	tensor.Im2Col(cols, img, s.inC, s.h, s.w, s.k, s.k, s.stride, s.pad, outH, outW)
	gemm := timeOp(func() {
		for g := 0; g < s.groups; g++ {
			tensor.Gemm(out[g*m*n:(g+1)*m*n], wts[g*m*k:(g+1)*m*k], cols[g*k*n:(g+1)*k*n], m, k, n, false, false)
		}
	})
	im2col := timeOp(func() {
		tensor.Im2Col(cols, img, s.inC, s.h, s.w, s.k, s.k, s.stride, s.pad, outH, outW)
	})
	flops := 2 * float64(s.groups) * float64(m) * float64(k) * float64(n)
	return flops / gemm.Seconds() / 1e9, float64(4*len(cols)) / im2col.Seconds() / 1e9
}

// probeParallel measures one tensor.Parallel dispatch over as many chunks
// as the kernel budget: its time and its heap allocations.
func probeParallel() (ns, allocs float64) {
	const dispatches = 20000
	width := tensor.KernelThreads()
	fn := func(lo, hi int) {}
	tensor.Parallel(width, fn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < dispatches; i++ {
		tensor.Parallel(width, fn)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d) / dispatches, float64(after.Mallocs-before.Mallocs) / dispatches
}

// qpK is the signature-task count k of FedKNOW at CI scale, the value
// experiments.MethodFactory configures.
const qpK = 3

// probeQP times core.GradientIntegrator.IntegrateSelected at the traced
// model's parameter count n against the knowledge store of the last task
// (one stored gradient per earlier task). The candidates lean against g, so
// every selected constraint is violated and the QP runs.
func probeQP(seed uint64, n, stored int) float64 {
	rng := tensor.NewRNG(seed).Fork(0x9b)
	g := make([]float32, n)
	rng.FillNorm(g, 1)
	cands := make([][]float32, stored)
	for i := range cands {
		cands[i] = make([]float32, n)
		rng.FillNorm(cands[i], 1)
		tensor.AxpySlice(cands[i], -0.5, g)
	}
	gi := core.NewGradientIntegrator()
	return float64(timeOp(func() { gi.IntegrateSelected(g, cands, qpK) })) / 1e6
}

// probeCodec times fed.Encode of a GlobalModel and fed.Decode of an Update,
// each carrying n dense parameters.
func probeCodec(seed uint64, n int) (encodeMS, decodeMS float64, err error) {
	params := make([]float32, n)
	tensor.NewRNG(seed).Fork(0xc0dec).FillNorm(params, 0.05)
	gm := &fed.GlobalModel{Params: params, Version: 1}
	var buf bytes.Buffer
	if err := fed.Encode(&buf, gm); err != nil {
		return 0, 0, fmt.Errorf("encode probe: %w", err)
	}
	enc := timeOp(func() {
		buf.Reset()
		_ = fed.Encode(&buf, gm) // checked above; a bytes.Buffer cannot fail
	})
	var frame bytes.Buffer
	if err := fed.Encode(&frame, &fed.Update{ClientID: 0, Participating: true, Weight: 1, Params: params}); err != nil {
		return 0, 0, fmt.Errorf("encode probe: %w", err)
	}
	if _, err := fed.Decode(bytes.NewReader(frame.Bytes())); err != nil {
		return 0, 0, fmt.Errorf("decode probe: %w", err)
	}
	dec := timeOp(func() {
		_, _ = fed.Decode(bytes.NewReader(frame.Bytes())) // checked above
	})
	return float64(enc) / 1e6, float64(dec) / 1e6, nil
}
