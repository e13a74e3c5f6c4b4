// Command perfbench is the repository's benchmark. It boots the serving
// system the way its users run it — a core engine of K=3 emulated devices
// behind the HTTP gateway on loopback — drives one workload against it for
// a fixed window, checks the outputs against a single-device reference, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	perfbench --workload classify-bert --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 splits the window
// into an untraced and a traced half, reports the per-layer metrics from
// spans recorded around the calls into each layer plus the single-layer
// ladder, and prints the tracing overhead. README.md lists the workloads
// and which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"voltage/internal/metrics"
	"voltage/internal/tensor"
)

// queueTail is the tail quantile of the scheduler's queue wait, printed
// when the run has the samples for it: both halves of a traced
// classify-bert run leave about 90, of generate-gpt2 about 25.
const queueTail = 0.75

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// Add records one metric.
func (m Metrics) Add(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured window, seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := Workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if err := spec.validate(); err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	// Each emulated device is one single-threaded core, as in voltage-server.
	tensor.SetWorkers(1)
	window := time.Duration(*seconds) * time.Second
	var res *Result
	var err error
	if *traced == 1 {
		res, err = runTraced(spec, *seed, window, filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", spec.Name, *seed)), stdout)
	} else {
		res, err = runEndToEnd(spec, *seed, window, stdout)
	}
	if err != nil {
		return err
	}
	if err := checkManifest(manifestPath, *traced == 1, res.Metrics); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// manifestPath is the benchmark's manifest, relative to the repository
// root the benchmark runs from.
const manifestPath = "BENCHMARK.json"

// manifestMetric is one metric as BENCHMARK.json names it.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// checkManifest reports an error unless m holds exactly the metrics the
// manifest at path lists for the run: its per-layer metrics for a traced
// run, its end-to-end metrics otherwise, each in its unit.
func checkManifest(path string, traced bool, m Metrics) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read manifest: %w", err)
	}
	var man struct {
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		return fmt.Errorf("parse manifest %s: %w", path, err)
	}
	want := man.EndToEnd
	if traced {
		want = man.PerLayer
	}
	var problems []string
	listed := make(map[string]bool)
	for _, w := range want {
		listed[w.Name] = true
		got, ok := m[w.Name]
		switch {
		case !ok:
			problems = append(problems, w.Name+" not reported")
		case got.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, manifest says %s", w.Name, got.Unit, w.Unit))
		}
	}
	for name := range m {
		if !listed[name] {
			problems = append(problems, name+" not in the manifest")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics do not match %s: %s", path, strings.Join(problems, "; "))
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bootTimed boots spec and returns the deployment and its boot time.
func bootTimed(spec Spec, tr *Tracer) (*Deployment, float64, error) {
	start := time.Now()
	d, err := Boot(spec, tr)
	return d, time.Since(start).Seconds(), err
}

// verify checks the sampled records of every window against the reference.
// The deployment must be closed first: the reference needs the memory.
func verify(spec Spec, seed int64, windows ...*Window) (checked int, err error) {
	ref, err := NewReference(spec.Model)
	if err != nil {
		return 0, err
	}
	for i, w := range windows {
		recs := sampleForCheck(w.Records, spec.CheckSample, seed+int64(i))
		ref.Check(recs, callers)
		checked += len(recs)
	}
	return checked, nil
}

func runEndToEnd(spec Spec, seed int64, window time.Duration, stdout io.Writer) (*Result, error) {
	ctx := context.Background()
	var boots []float64
	var d *Deployment
	for i := 0; i < setups; i++ {
		dep, s, err := bootTimed(spec, nil)
		if err != nil {
			return nil, err
		}
		boots = append(boots, s)
		if i < setups-1 {
			dep.Close()
			runtime.GC()
		} else {
			d = dep
		}
	}
	src := NewSource(spec, seed)
	if err := d.Warm(ctx, src); err != nil {
		d.Close()
		return nil, err
	}
	heap := heapMB()
	w := d.RunClosed(ctx, src, window)
	d.Close()
	runtime.GC()
	checked, err := verify(spec, seed, w)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(stdout, "boots: %.3f s\n", boots)
	out := Metrics{}
	out.Add("setup_s", median(boots), "s")
	out.Add("heap_mb", heap, "MB")
	invalid := EndToEnd(spec, w, out, stdout)
	return report(stdout, out, invalid, checked, w), nil
}

// outputTail is the tail quantile reported beside the median output wait.
// A 30 s window holds about 100 classifies or about 400 generate outputs:
// enough for p75 in every run, but not for p90 in every classify run.
const outputTail = 0.75

// EndToEnd adds the window's end-to-end metrics to out and prints each
// timing's sample count. It returns why the run is invalid, if it is.
//
// An output is what a client receives: the class of a classify, or one token
// line of a generate. Its wait runs from sending for the first output and
// from the previous output for the rest, so on generate-gpt2 the first wait
// is the time to first token and the others are the gaps between tokens.
func EndToEnd(spec Spec, w *Window, out Metrics, log io.Writer) []string {
	var first, waits []float64
	ok, met, tokens := 0, 0, 0
	for _, r := range w.Records {
		if !r.ok() {
			continue
		}
		ok++
		f := ms(r.First.Sub(r.Sent))
		first = append(first, f)
		waits = append(append(waits, f), r.Gaps...)
		tokens += len(r.Req.Tokens) + len(r.Streamed)
		worst := 0.0
		for _, g := range r.Gaps {
			worst = max(worst, g)
		}
		if f <= spec.SLO.FirstMS && worst <= spec.SLO.GapMS {
			met++
		}
	}
	fd, wd := Summarize(first, 0.5), Summarize(waits, outputTail)
	fmt.Fprintf(log, "first output: n=%d p50=%.3f ms\n", fd.N, fd.P50)
	fmt.Fprintf(log, "output wait: n=%d p50=%.3f ms %s=%.3f ms\n", wd.N, wd.P50, tailName(outputTail), wd.Tail)
	var invalid []string
	if !wd.Valid {
		invalid = append(invalid, fmt.Sprintf("output wait: %d samples leave fewer than %d above %s", wd.N, minBeyond, tailName(outputTail)))
	}
	out.Add("first_output_p50_ms", fd.P50, "ms")
	out.Add("output_wait_p50_ms", wd.P50, "ms")
	out.Add("output_wait_"+tailName(outputTail)+"_ms", wd.Tail, "ms")
	elapsed := max(w.Elapsed().Seconds(), 1e-9)
	out.Add("requests_per_s", float64(ok)/elapsed, "1/s")
	out.Add("tokens_per_s", float64(tokens)/elapsed, "1/s")
	out.Add("slo_ok_ratio", float64(met)/float64(max(len(w.Records), 1)), "ratio")
	return invalid
}

// report prints the run's error ratio and failures and builds its result.
// A run with a wrong output or an invalid percentile is not correct.
func report(log io.Writer, out Metrics, invalid []string, checked int, windows ...*Window) *Result {
	res := &Result{Correct: true, Metrics: out}
	wrong := 0
	shown := 0
	for _, w := range windows {
		for _, r := range w.Records {
			res.Attempted++
			if r.ok() {
				continue
			}
			res.Failed++
			if errors.Is(r.Err, errWrongOutput) {
				wrong++
			}
			if shown < 5 {
				fmt.Fprintf(log, "failed request %d (%s): %v\n", r.Req.Seq, r.Req.Kind, r.Err)
				shown++
			}
		}
	}
	errorRatio := 0.0
	if res.Attempted > 0 {
		errorRatio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(log, "attempted=%d failed=%d error_ratio=%.4f checked_against_reference=%d wrong=%d\n",
		res.Attempted, res.Failed, errorRatio, checked, wrong)
	for _, why := range invalid {
		fmt.Fprintln(log, "invalid:", why)
	}
	if wrong > 0 || len(invalid) > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the result format needs at least one attempt; this run is marked incorrect
		res.Failed = 1
	}
	return res
}

// runtimeSample is a point-in-time read of the Go runtime counters the
// traced run reports.
type runtimeSample struct {
	alloc    uint64
	gcCPU    float64 // seconds; the runtime adds a cycle's share when it ends
	totalCPU float64 // process user+system seconds
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{alloc: ms.TotalAlloc, gcCPU: gc[0].Value.Float64(), totalCPU: cpu.Seconds()}
}

// histDelta returns the change in a histogram's sum and count between two
// snapshots.
func histDelta(before, after metrics.Snapshot, name string) (sum float64, count uint64) {
	a, b := after.Histograms[name], before.Histograms[name]
	return a.Sum - b.Sum, a.Count - b.Count
}

func runTraced(spec Spec, seed int64, window time.Duration, spanPath string, stdout io.Writer) (*Result, error) {
	ctx := context.Background()
	tr := NewTracer()
	d, setup, err := bootTimed(spec, tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "boot: %.3f s\n", setup)
	src := NewSource(spec, seed)
	if err := d.Warm(ctx, src); err != nil {
		d.Close()
		return nil, err
	}
	half := window / 2

	// Untraced half: the baseline for the tracing overhead and the runtime
	// counters, which tracing's own allocations would inflate.
	rt0 := readRuntime()
	plain := d.RunClosed(ctx, src, half)
	rt1 := readRuntime()

	snap0 := d.Engine.Metrics()
	tr.Start()
	traced := d.RunClosed(ctx, src, half)
	tr.Stop()
	snap1 := d.Engine.Metrics()
	shed := 0.0
	for _, n := range d.Gateway.Scheduler().Stats().Shed {
		shed += float64(n)
	}
	d.Close()
	runtime.GC()
	checked, err := verify(spec, seed, plain, traced)
	if err != nil {
		return nil, err
	}

	out := Metrics{}
	plainE2E, tracedE2E := Metrics{}, Metrics{}
	fmt.Fprintln(stdout, "untraced half:")
	EndToEnd(spec, plain, plainE2E, stdout)
	fmt.Fprintln(stdout, "traced half:")
	EndToEnd(spec, traced, tracedE2E, stdout)
	for _, name := range []string{"first_output_p50_ms", "output_wait_p50_ms"} {
		a, b := plainE2E[name].Value, tracedE2E[name].Value
		fmt.Fprintf(stdout, "tracing overhead %s: %+.3f ms (traced %.3f - untraced %.3f)\n", name, b-a, b, a)
	}

	// Gateway and scheduler.
	var overhead, prefill, batchWait, perToken []float64
	attempts, calls := 0, 0
	for _, r := range traced.Records {
		c, ok := tr.Call(promptKey(r.Req.Tokens))
		if !ok || !r.ok() {
			continue
		}
		calls++
		attempts += c.Attempts
		overhead = append(overhead, ms(r.End.Sub(r.Sent)-c.dur()))
		prefill = append(prefill, ms(c.Prefill))
		if r.Req.Kind == Classify {
			continue
		}
		batchWait = append(batchWait, ms(c.BatchWait))
		if c.Generated > 0 {
			perToken = append(perToken, ms(c.Decode)/float64(c.Generated))
		}
	}
	if calls == 0 {
		return nil, errors.New("traced window recorded no backend calls")
	}
	out.Add("server.overhead_p50_ms", Summarize(overhead, 0.5).P50, "ms")
	var queue []float64
	for _, w := range []*Window{plain, traced} {
		for _, r := range w.Records {
			if r.ok() {
				queue = append(queue, r.QueueMS)
			}
		}
	}
	q := Summarize(queue, queueTail)
	out.Add("sched.queue_p50_ms", q.P50, "ms")
	if q.Valid {
		fmt.Fprintf(stdout, "sched.queue: n=%d %s=%.3f ms\n", q.N, tailName(queueTail), q.Tail)
	}
	out.Add("sched.shed_total", shed, "count")

	// Cluster. The batcher serves only generate, so its figures are printed
	// for generate-gpt2 but are not metrics: every metric must apply to
	// every workload.
	out.Add("cluster.prefill_p50_ms", Summarize(prefill, 0.5).P50, "ms")
	if spec.Kind == Generate {
		sum, count := histDelta(snap0, snap1, "voltage_batch_size")
		fmt.Fprintf(stdout, "cluster: batch wait p50 %.3f ms, decode p50 %.3f ms/token, mean batch width %.3f over %d steps\n",
			Summarize(batchWait, 0.5).P50, Summarize(perToken, 0.5).P50, sum/float64(max(count, 1)), count)
	}
	out.Add("cluster.attempts_per_req", float64(attempts)/float64(calls), "count")

	// Transport, per completed traced request.
	n := float64(calls)
	out.Add("comm.msgs_per_req", float64(tr.msgs.Load())/n, "count")
	out.Add("comm.bytes_per_req", float64(tr.bytes.Load())/n, "bytes")
	out.Add("comm.send_ms_per_req", float64(tr.sendNS.Load())/1e6/n, "ms")
	out.Add("comm.recv_wait_ms_per_req", float64(tr.recvNS.Load())/1e6/n, "ms")

	// Go runtime over the untraced half.
	okPlain := 0
	for _, r := range plain.Records {
		if r.ok() {
			okPlain++
		}
	}
	if okPlain > 0 {
		out.Add("runtime.alloc_bytes_per_req", float64(rt1.alloc-rt0.alloc)/float64(okPlain), "bytes")
	}
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		out.Add("runtime.gc_cpu_fraction", (rt1.gcCPU-rt0.gcCPU)/cpu, "ratio")
	}

	self := tr.SelfTimes(traced.Records)
	for _, layer := range []string{"client+gateway", "server", "comm(terminal)"} {
		if v, ok := self[layer]; ok {
			fmt.Fprintf(stdout, "self time %s: %.3f ms/request\n", layer, v)
		}
	}
	if err := tr.WriteSpans(spanPath, traced.Records); err != nil {
		fmt.Fprintln(stdout, "spans not written:", err)
	} else {
		fmt.Fprintln(stdout, "spans written to", spanPath)
	}

	if err := Ladder(spec, out); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return report(stdout, out, nil, checked, plain, traced), nil
}
