package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/core"
)

// Span is one timed call into a layer, recorded from outside the program.
// Spans of one request share Key (its prompt); transport spans carry no key
// because a message does not name its request, only its rank.
type Span struct {
	Layer  string    `json:"layer"` // client, server, comm
	Name   string    `json:"name"`
	Key    string    `json:"key,omitempty"`
	Parent string    `json:"parent,omitempty"` // layer of the causing span
	Rank   int       `json:"rank"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Bytes  int       `json:"bytes,omitempty"`
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// BackendCall is what the backend wrapper saw of one request.
type BackendCall struct {
	Span
	Attempts  int
	Generated int
	Prefill   time.Duration // the prompt pass: a classify's Run.Latency, or PrefillLatency
	BatchWait time.Duration
	Decode    time.Duration
}

// Tracer records spans at two boundaries of the deployment: the gateway's
// calls into its Backend, and every device's calls into its transport. It
// records only while on, so one deployment serves an untraced and a traced
// window.
type Tracer struct {
	on     atomic.Bool
	mu     sync.Mutex
	calls  map[string]*BackendCall
	comm   []Span
	msgs   atomic.Int64
	bytes  atomic.Int64
	sendNS atomic.Int64
	recvNS atomic.Int64
}

// NewTracer returns a stopped tracer.
func NewTracer() *Tracer {
	return &Tracer{calls: make(map[string]*BackendCall)}
}

// Start turns recording on.
func (t *Tracer) Start() { t.on.Store(true) }

// Stop turns recording off.
func (t *Tracer) Stop() { t.on.Store(false) }

// WrapBackend wraps the engine's ClassifyTokens and GenerateStream. The
// embedded engine keeps every other method, so the gateway still finds the
// optional capabilities (batch width, flight recorder) it looks for.
func (t *Tracer) WrapBackend(e *core.Engine) *TracedBackend {
	return &TracedBackend{Engine: e, t: t}
}

// TracedBackend is a server.Backend that times each call into the engine.
type TracedBackend struct {
	*core.Engine
	t *Tracer
}

// ClassifyTokens implements server.Backend.
func (b *TracedBackend) ClassifyTokens(ctx context.Context, s cluster.Strategy, ids []int) (*core.Prediction, error) {
	if !b.t.on.Load() {
		return b.Engine.ClassifyTokens(ctx, s, ids)
	}
	start := time.Now()
	p, err := b.Engine.ClassifyTokens(ctx, s, ids)
	call := &BackendCall{Span: Span{Layer: "server", Name: "classify", Key: promptKey(ids), Parent: "client", Rank: -1, Start: start, End: time.Now()}}
	if err == nil {
		call.Attempts, call.Prefill = p.Run.Attempts, p.Run.Latency
	}
	b.t.addCall(call)
	return p, err
}

// GenerateStream implements server.Backend.
func (b *TracedBackend) GenerateStream(ctx context.Context, prompt []int, steps int, onToken func(tok int)) (*cluster.GenerateResult, error) {
	if !b.t.on.Load() {
		return b.Engine.GenerateStream(ctx, prompt, steps, onToken)
	}
	start := time.Now()
	res, err := b.Engine.GenerateStream(ctx, prompt, steps, onToken)
	call := &BackendCall{Span: Span{Layer: "server", Name: "generate", Key: promptKey(prompt), Parent: "client", Rank: -1, Start: start, End: time.Now()}}
	if err == nil {
		call.Attempts = res.Attempts
		call.Generated = len(res.Tokens) - len(prompt)
		call.Prefill, call.BatchWait, call.Decode = res.PrefillLatency, res.BatchWait, res.DecodeLatency
	}
	b.t.addCall(call)
	return res, err
}

func (t *Tracer) addCall(c *BackendCall) {
	t.mu.Lock()
	t.calls[c.Key] = c
	t.mu.Unlock()
}

// WrapPeer is the engine's WrapTransport hook: it times every Send and Recv
// of device rank and counts the messages and bytes it sends.
func (t *Tracer) WrapPeer(rank int, p comm.Peer) comm.Peer {
	return &tracedPeer{Peer: p, t: t}
}

// tracedPeer forwards every Peer method and the optional Flusher
// capability; Recv hands the transport's buffer to the caller untouched,
// so buffer ownership passes through as before.
type tracedPeer struct {
	comm.Peer
	t *Tracer
}

func (p *tracedPeer) Send(ctx context.Context, to int, data []byte) error {
	if !p.t.on.Load() {
		return p.Peer.Send(ctx, to, data)
	}
	start := time.Now()
	err := p.Peer.Send(ctx, to, data)
	end := time.Now()
	p.t.msgs.Add(1)
	p.t.bytes.Add(int64(len(data)))
	p.t.sendNS.Add(int64(end.Sub(start)))
	p.t.addComm(Span{Layer: "comm", Name: "send", Parent: "server", Rank: p.Rank(), Start: start, End: end, Bytes: len(data)})
	return err
}

func (p *tracedPeer) Recv(ctx context.Context, from int) ([]byte, error) {
	if !p.t.on.Load() {
		return p.Peer.Recv(ctx, from)
	}
	start := time.Now()
	b, err := p.Peer.Recv(ctx, from)
	end := time.Now()
	p.t.recvNS.Add(int64(end.Sub(start)))
	p.t.addComm(Span{Layer: "comm", Name: "recv", Parent: "server", Rank: p.Rank(), Start: start, End: end, Bytes: len(b)})
	return b, err
}

// Flush keeps the mesh-fencing capability visible through the wrapper.
func (p *tracedPeer) Flush() bool { return comm.TryFlush(p.Peer) }

func (t *Tracer) addComm(s Span) {
	t.mu.Lock()
	t.comm = append(t.comm, s)
	t.mu.Unlock()
}

// Call returns the backend call for a prompt, if one was traced.
func (t *Tracer) Call(key string) (*BackendCall, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.calls[key]
	return c, ok
}

// SelfTimes splits the traced requests' time by layer. A layer's self time
// is its spans' duration minus the part covered by its children: the
// client's child is the backend call of the same prompt; the backend call's
// children are the terminal device's transport spans inside it. With two
// requests in flight a terminal span can overlap both calls, so the server
// layer's self time is a lower bound. Values are per-request means in ms.
func (t *Tracer) SelfTimes(recs []*Record) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var term []Span
	for _, s := range t.comm {
		if s.Rank == devices { // the terminal is the mesh's last rank
			term = append(term, s)
		}
	}
	sort.Slice(term, func(i, j int) bool { return term[i].Start.Before(term[j].Start) })
	var client, srv, comm float64
	n := 0
	for _, r := range recs {
		c, ok := t.calls[promptKey(r.Req.Tokens)]
		if !ok || !r.ok() {
			continue
		}
		n++
		client += ms(r.End.Sub(r.Sent) - c.dur())
		covered := coverage(term, c.Start, c.End)
		srv += ms(c.dur() - covered)
		comm += ms(covered)
	}
	if n == 0 {
		return nil
	}
	return map[string]float64{"client+gateway": client / float64(n), "server": srv / float64(n), "comm(terminal)": comm / float64(n)}
}

// coverage returns how much of [from, to) the union of spans covers; spans
// must be sorted by start.
func coverage(spans []Span, from, to time.Time) time.Duration {
	var total time.Duration
	cur := from
	for _, s := range spans {
		if !s.End.After(cur) {
			continue
		}
		if !s.Start.Before(to) {
			break
		}
		start := s.Start
		if start.Before(cur) {
			start = cur
		}
		end := s.End
		if end.After(to) {
			end = to
		}
		if end.After(start) {
			total += end.Sub(start)
			cur = end
		}
	}
	return total
}

// WriteSpans writes every recorded span, client spans included, as JSON
// lines to path.
func (t *Tracer) WriteSpans(path string, recs []*Record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, r := range recs {
		if _, ok := t.calls[promptKey(r.Req.Tokens)]; ok {
			_ = enc.Encode(Span{Layer: "client", Name: r.Req.Kind.String(), Key: promptKey(r.Req.Tokens), Rank: -1, Start: r.Sent, End: r.End})
		}
	}
	for _, c := range t.calls {
		_ = enc.Encode(c.Span)
	}
	for _, s := range t.comm {
		_ = enc.Encode(s)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
