package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/core"
	"voltage/internal/metrics"
	"voltage/internal/netem"
	"voltage/internal/server"
)

// weightSeed fixes the served model's weights; the workload seed only
// drives the generated inputs.
const weightSeed = 1

// requestTimeout bounds one HTTP request so a stuck request fails the run
// instead of hanging it.
const requestTimeout = 60 * time.Second

// Deployment is one booted system under test: a core engine behind an
// in-process gateway on a loopback listener.
type Deployment struct {
	Engine  *core.Engine
	Gateway *server.Server
	URL     string
	srv     *http.Server
	client  *http.Client
	served  chan error
}

// Boot starts the engine and gateway for spec and waits until /healthz
// answers. A non-nil tracer wraps the transport and the backend.
func Boot(spec Spec, tr *Tracer) (*Deployment, error) {
	opts := cluster.Options{
		Profile: netem.Profile{BandwidthMbps: spec.LinkMbps},
		Seed:    weightSeed,
	}
	var backend server.Backend
	if tr != nil {
		opts.WrapTransport = tr.WrapPeer
	}
	eng, err := core.New(spec.Model, devices, opts)
	if err != nil {
		return nil, fmt.Errorf("boot engine: %w", err)
	}
	backend = eng
	if tr != nil {
		backend = tr.WrapBackend(eng)
	}
	registry := eng.Cluster().MetricsRegistry()
	if registry == nil {
		registry = metrics.NewRegistry()
	}
	gw, err := server.New(backend, server.Options{Registry: registry})
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("boot gateway: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		eng.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &Deployment{
		Engine:  eng,
		Gateway: gw,
		URL:     "http://" + ln.Addr().String(),
		srv:     &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 5 * time.Second},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * callers,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := d.client.Get(d.URL + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	return d, nil
}

// Close stops the listener, the gateway and the engine, and waits for the
// serving goroutine to return.
func (d *Deployment) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.Gateway.Close()
	d.Engine.Close()
}

// Record is one request's client-side outcome. Times are wall-clock.
type Record struct {
	Req      Request
	Sent     time.Time
	First    time.Time // first output: the class, or the first token line
	End      time.Time
	Gaps     []float64 // ms between consecutive token lines
	Streamed []int     // token ids in stream order
	Tokens   []int     // generate: prompt + continuation from the summary line
	Class    int
	QueueMS  float64
	Err      error
}

func (r *Record) ok() bool { return r.Err == nil }

// Do sends r.Req and fills in the outcome.
func (d *Deployment) Do(ctx context.Context, rec *Record) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	rec.Sent = time.Now()
	if rec.Req.Kind == Generate {
		rec.Err = d.generate(ctx, rec)
	} else {
		rec.Err = d.classify(ctx, rec)
	}
	rec.End = time.Now()
	if rec.Req.Kind == Classify {
		rec.First = rec.End // the class is a classify's one output
	}
}

func (d *Deployment) post(ctx context.Context, path string, body any) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.URL+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (d *Deployment) classify(ctx context.Context, rec *Record) error {
	resp, err := d.post(ctx, "/v1/classify", map[string]any{"tokens": rec.Req.Tokens, "strategy": "voltage"})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Class   int     `json:"class"`
		QueueMS float64 `json:"queue_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("classify: decode: %w", err)
	}
	rec.Class, rec.QueueMS = out.Class, out.QueueMS
	return nil
}

// chunk is one ndjson line of /v1/generate.
type chunk struct {
	Token   *int    `json:"token"`
	Done    bool    `json:"done"`
	Tokens  []int   `json:"tokens"`
	QueueMS float64 `json:"queue_ms"`
	Error   string  `json:"error"`
}

func (d *Deployment) generate(ctx context.Context, rec *Record) error {
	resp, err := d.post(ctx, "/v1/generate", map[string]any{"prompt": rec.Req.Tokens, "steps": rec.Req.Steps})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var last time.Time
	for {
		var c chunk
		if err := dec.Decode(&c); err != nil {
			return fmt.Errorf("generate: stream ended without summary: %w", err)
		}
		now := time.Now()
		switch {
		case c.Error != "":
			return fmt.Errorf("generate: %s", c.Error)
		case c.Token != nil:
			if rec.First.IsZero() {
				rec.First = now
			} else {
				rec.Gaps = append(rec.Gaps, float64(now.Sub(last))/float64(time.Millisecond))
			}
			last = now
			rec.Streamed = append(rec.Streamed, *c.Token)
		case c.Done:
			rec.Tokens, rec.QueueMS = c.Tokens, c.QueueMS
			if rec.First.IsZero() {
				return fmt.Errorf("generate: no tokens streamed")
			}
			return nil
		}
	}
}

// Warm sends one untimed request per caller, concurrently, so lazy set-up
// and first-use costs finish before the window.
func (d *Deployment) Warm(ctx context.Context, src *Source) error {
	recs := make([]*Record, callers)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = &Record{Req: src.Next()}
		wg.Add(1)
		go func(r *Record) {
			defer wg.Done()
			d.Do(ctx, r)
		}(recs[i])
	}
	wg.Wait()
	for _, r := range recs {
		if r.Err != nil {
			return fmt.Errorf("warm-up: %w", r.Err)
		}
	}
	return nil
}

// Window is the outcome of one timed window.
type Window struct {
	Start   time.Time
	Records []*Record
}

// Elapsed runs from the window's start to the last completion.
func (w *Window) Elapsed() time.Duration {
	end := w.Start
	for _, r := range w.Records {
		if r.End.After(end) {
			end = r.End
		}
	}
	return end.Sub(w.Start)
}

// RunClosed keeps callers requests in flight for dur: each caller sends its
// next request as soon as its previous one completes.
func (d *Deployment) RunClosed(ctx context.Context, src *Source, dur time.Duration) *Window {
	w := &Window{Start: time.Now()}
	stop := w.Start.Add(dur)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if !time.Now().Before(stop) {
					mu.Unlock()
					return
				}
				rec := &Record{Req: src.Next()}
				w.Records = append(w.Records, rec)
				mu.Unlock()
				d.Do(ctx, rec)
			}
		}()
	}
	wg.Wait()
	return w
}

// heapMB returns the live heap in MiB. Two collections empty the
// sync.Pools (the first moves their contents to a victim cache).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
