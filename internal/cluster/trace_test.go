package cluster

import (
	"context"
	"testing"
	"time"

	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/trace"
)

// workerPhases sums a traced result's compute and comm spans per worker
// rank; the terminal (rank k) does neither and is left out.
func workerPhases(t *testing.T, res *Result, k int) (compute, comm []time.Duration) {
	t.Helper()
	if res.Trace == nil {
		t.Fatal("result carries no trace; was Options.TraceRequests set?")
	}
	compute, comm = make([]time.Duration, k), make([]time.Duration, k)
	for _, s := range res.Trace.Spans() {
		if s.Rank >= k {
			continue
		}
		switch s.Phase {
		case trace.PhaseCompute:
			compute[s.Rank] += s.Dur
		case trace.PhaseComm:
			comm[s.Rank] += s.Dur
		}
	}
	return compute, comm
}

func TestTraceCapturesVoltageBreakdown(t *testing.T) {
	c, err := NewMem(model.Tiny().Scaled(4), 3, Options{
		Profile:       netem.Profile{BandwidthMbps: 100},
		TraceRequests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 24))
	if err != nil {
		t.Fatal(err)
	}
	compute, comm := workerPhases(t, res, 3)
	for r := range compute {
		if compute[r] <= 0 {
			t.Fatalf("device %d recorded no compute", r)
		}
		if comm[r] <= 0 {
			t.Fatalf("device %d recorded no comm", r)
		}
	}
}

func TestTraceCapturesTPBreakdown(t *testing.T) {
	c, err := NewMem(model.Tiny(), 2, Options{TraceRequests: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	res, err := c.Infer(context.Background(), StrategyTensorParallel, embedTiny(t, c, 12))
	if err != nil {
		t.Fatal(err)
	}
	compute, comm := workerPhases(t, res, 2)
	for r := range compute {
		if compute[r] <= 0 || comm[r] <= 0 {
			t.Fatalf("device %d breakdown incomplete: compute %v comm %v", r, compute[r], comm[r])
		}
	}
}

func TestTPCommFractionExceedsVoltage(t *testing.T) {
	// The crux of the paper in one number: under the same bandwidth, TP
	// spends a larger fraction of its time communicating than Voltage.
	run := func(strategy Strategy) float64 {
		c, err := NewMem(model.Tiny().Scaled(4), 3, Options{
			Profile:       netem.Profile{BandwidthMbps: 20, Latency: 200 * time.Microsecond},
			TraceRequests: true,
			DeviceFlops:   2e8,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.Infer(context.Background(), strategy, embedTiny(t, c, 32))
		if err != nil {
			t.Fatal(err)
		}
		compute, comm := workerPhases(t, res, 3)
		var computeSum, commSum time.Duration
		for r := range compute {
			computeSum += compute[r]
			commSum += comm[r]
		}
		return float64(commSum) / float64(computeSum+commSum)
	}
	v := run(StrategyVoltage)
	tp := run(StrategyTensorParallel)
	if tp <= v {
		t.Fatalf("TP comm fraction %.2f not above Voltage %.2f", tp, v)
	}
	t.Logf("comm fraction @20Mbps: voltage=%.2f tensor-parallel=%.2f", v, tp)
}
