package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/core"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/server"
	"voltage/internal/tensor"
)

// The ladder times single layers, unpaced and with nothing else running, at
// the shapes a workload gives them:
//
//	N = mean prompt length, p = ceil(N/K) rows per device (one partition),
//	B = callers (the fused decode width), V = the model's vocabulary.
//
// Each rung reports the median time per call over a short budget and, where
// named, heap allocations per call.

// rungBudget is how long one rung keeps calling once warm.
const rungBudget = 400 * time.Millisecond

// timeCalls calls f once to warm up, then repeatedly until rungBudget has
// passed (at least 3 and at most maxCalls times). It returns the median
// duration of one call and the mean heap allocations per call.
func timeCalls(maxCalls int, f func() error) (time.Duration, float64, error) {
	if err := f(); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var times []float64
	start := time.Now()
	for len(times) < 3 || (len(times) < maxCalls && time.Since(start) < rungBudget) {
		t := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		times = append(times, float64(time.Since(t)))
	}
	runtime.ReadMemStats(&after)
	return time.Duration(median(times)), float64(after.Mallocs-before.Mallocs) / float64(len(times)), nil
}

// filled returns a rows×cols matrix of small varied values.
func filled(rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i, d := 0, m.Data(); i < len(d); i++ {
		d[i] = float32(i%17-8) / 64
	}
	return m
}

// Ladder runs every rung for spec and adds its metrics to out.
func Ladder(spec Spec, out Metrics) error {
	cfg := spec.Model
	k := devices
	n := (spec.PromptMin + spec.PromptMax) / 2
	p := (n + k - 1) / k
	b := callers
	gflops := func(macs int, d time.Duration) float64 { return 2 * float64(macs) / float64(d.Nanoseconds()) }

	matmul := func(rows, inner, cols int) (time.Duration, float64, error) {
		a, w := filled(rows, inner), filled(inner, cols)
		return timeCalls(200, func() error { _, err := tensor.MatMul(a, w); return err })
	}
	d, allocs, err := matmul(p, cfg.F, cfg.FFN)
	if err != nil {
		return fmt.Errorf("matmul prefill: %w", err)
	}
	out.Add("tensor.matmul_prefill_gflops", gflops(p*cfg.F*cfg.FFN, d), "GFLOP/s")
	out.Add("tensor.matmul_allocs", allocs, "count")
	if d, _, err = matmul(b, cfg.F, cfg.FFN); err != nil {
		return fmt.Errorf("matmul decode: %w", err)
	}
	out.Add("tensor.matmul_decode_gflops", gflops(b*cfg.F*cfg.FFN, d), "GFLOP/s")
	if d, _, err = matmul(b, cfg.F, cfg.VocabSize); err != nil {
		return fmt.Errorf("matmul lm head: %w", err)
	}
	out.Add("tensor.matmul_lmhead_gflops", gflops(b*cfg.F*cfg.VocabSize, d), "GFLOP/s")

	part := filled(p, cfg.F)
	size := tensor.EncodedSize(p, cfg.F)
	buf := make([]byte, 0, size)
	if d, _, err = timeCalls(5000, func() error { buf = tensor.Encode(buf[:0], part); return nil }); err != nil {
		return err
	}
	out.Add("tensor.encode_gbps", float64(size)/float64(d.Nanoseconds()), "GB/s")
	if d, allocs, err = timeCalls(5000, func() error { _, _, err := tensor.Decode(buf); return err }); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	out.Add("tensor.decode_gbps", float64(size)/float64(d.Nanoseconds()), "GB/s")
	out.Add("tensor.decode_allocs", allocs, "count")

	if d, err = allGatherRound(k, buf); err != nil {
		return fmt.Errorf("all-gather: %w", err)
	}
	out.Add("comm.allgather_us", float64(d)/float64(time.Microsecond), "us")

	layer, err := model.NewRandomLayer(cfg, tensor.NewRNG(weightSeed))
	if err != nil {
		return err
	}
	x := filled(n, cfg.F)
	if d, allocs, err = timeCalls(200, func() error {
		_, _, err := layer.ForwardPartition(x, partition.Range{From: 0, To: p})
		return err
	}); err != nil {
		return fmt.Errorf("forward partition: %w", err)
	}
	out.Add("model.forward_partition_ms", ms(d), "ms")
	out.Add("model.forward_partition_allocs", allocs, "count")

	if d, allocs, err = decodeStepBatch(cfg, n, b); err != nil {
		return fmt.Errorf("decode step: %w", err)
	}
	out.Add("model.decode_step_batch_ms", ms(d), "ms")
	out.Add("model.decode_step_batch_allocs", allocs, "count")

	if d, err = stubRoundTrip(); err != nil {
		return fmt.Errorf("stub round trip: %w", err)
	}
	out.Add("server.stub_roundtrip_us", float64(d)/float64(time.Microsecond), "us")
	return nil
}

// allGatherRound times one naive All-Gather of payload among k in-memory
// peers on unshaped links, so the rung shows the software path, not the
// emulated line rate.
func allGatherRound(k int, payload []byte) (time.Duration, error) {
	mesh, err := comm.NewMemMesh(k, netem.Unlimited)
	if err != nil {
		return 0, err
	}
	defer mesh[0].Close()
	ctx := context.Background()
	d, _, err := timeCalls(2000, func() error {
		var wg sync.WaitGroup
		errs := make([]error, k)
		for r := range mesh {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_, errs[r] = comm.AllGather(ctx, mesh[r], payload)
			}(r)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	return d, err
}

// decodeStepBatch times one fused decode step of b sequences whose prompts
// are n tokens long, on a decoder of cfg's width. The step embeds one row
// per sequence and never touches the LM head, so the vocabulary is cut to
// keep the rung's set-up short. Each call grows every cache by one
// position, so the number of calls is capped to stay near the prompt length.
func decodeStepBatch(cfg model.Config, n, b int) (time.Duration, float64, error) {
	dc := cfg
	dc.Kind = model.KindDecoder
	dc.VocabSize = min(cfg.VocabSize, 1024)
	m, err := model.NewRandom(dc, weightSeed)
	if err != nil {
		return 0, 0, err
	}
	states := make([]*model.DecodeState, b)
	ids := make([]int, b)
	for i := range states {
		prompt := make([]int, n)
		for j := range prompt {
			prompt[j] = (i*31 + j*7) % dc.VocabSize
		}
		x, err := m.Embed.EmbedTokens(prompt)
		if err != nil {
			return 0, 0, err
		}
		if _, states[i], err = m.Prefill(x); err != nil {
			return 0, 0, err
		}
		ids[i] = prompt[0]
	}
	return timeCalls(min(48, dc.MaxSeq-n-1), func() error {
		_, err := m.DecodeStepBatch(states, ids)
		return err
	})
}

// stubBackend answers instantly, so a round trip through the gateway times
// HTTP, JSON and the admission scheduler alone.
type stubBackend struct{ cfg model.Config }

func (s stubBackend) Config() model.Config { return s.cfg }

func (s stubBackend) ClassifyTokens(context.Context, cluster.Strategy, []int) (*core.Prediction, error) {
	return &core.Prediction{Class: 1, Logits: []float32{0, 1}, Run: &cluster.Result{Strategy: cluster.StrategyVoltage, Attempts: 1}}, nil
}

func (s stubBackend) GenerateStream(context.Context, []int, int, func(int)) (*cluster.GenerateResult, error) {
	return nil, errors.New("stub backend does not generate")
}

func (s stubBackend) Health() []cluster.RankHealth { return nil }

// stubRoundTrip times one /v1/classify round trip against stubBackend.
func stubRoundTrip() (time.Duration, error) {
	gw, err := server.New(stubBackend{cfg: model.Tiny()}, server.Options{})
	if err != nil {
		return 0, err
	}
	defer gw.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Shutdown(context.Background())
		<-served
	}()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/v1/classify"
	d, _, err := timeCalls(5000, func() error {
		resp, err := client.Post(url, "application/json", strings.NewReader(`{"tokens":[1,2,3]}`))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
	return d, err
}
