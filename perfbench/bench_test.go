package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"voltage/internal/model"
)

func TestPercentileRule(t *testing.T) {
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed: Summarize must sort a copy
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		q     float64
		valid bool
		p50   float64
		tail  float64
	}{
		{n: 100, q: 0.9, valid: true, p50: 50, tail: 90},
		{n: 99, q: 0.9, valid: false, p50: 50, tail: 90},
		{n: 40, q: 0.75, valid: true, p50: 20, tail: 30},
		{n: 39, q: 0.75, valid: false, p50: 20, tail: 30},
		{n: 1000, q: 0.99, valid: true, p50: 500, tail: 990},
		{n: 18, q: 0.99, valid: false, p50: 9, tail: 18},
	} {
		in := vals(tc.n)
		d := Summarize(in, tc.q)
		if d.N != tc.n || d.Valid != tc.valid || d.P50 != tc.p50 || d.Tail != tc.tail {
			t.Errorf("Summarize(n=%d, q=%g) = %+v, want valid=%v p50=%g tail=%g",
				tc.n, tc.q, d, tc.valid, tc.p50, tc.tail)
		}
		if in[0] != float64(tc.n) {
			t.Errorf("Summarize modified its input")
		}
	}
	if d := Summarize(nil, 0.9); d.Valid || d.N != 0 {
		t.Errorf("Summarize(nil) = %+v, want an invalid empty summary", d)
	}
	if got := tailName(0.75); got != "p75" {
		t.Errorf("tailName(0.75) = %q", got)
	}
}

func TestCheckerRejectsCorruptedToken(t *testing.T) {
	cfg := model.TinyDecoder()
	ref, err := NewReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{3, 14, 15, 92, 65}
	want, err := ref.m.GenerateIncremental(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	good := &Record{
		Req:      Request{Kind: Generate, Tokens: prompt, Steps: 6},
		Tokens:   slices.Clone(want),
		Streamed: slices.Clone(want[len(prompt):]),
	}
	if err := ref.Verify(good); err != nil {
		t.Fatalf("exact output rejected: %v", err)
	}

	summary := *good
	summary.Tokens = slices.Clone(want)
	summary.Tokens[len(prompt)+2] = (summary.Tokens[len(prompt)+2] + 1) % cfg.VocabSize
	if ref.Verify(&summary) == nil {
		t.Error("corrupted token on the summary line accepted")
	}
	stream := *good
	stream.Streamed = slices.Clone(want[len(prompt):])
	stream.Streamed[0] = (stream.Streamed[0] + 1) % cfg.VocabSize
	if ref.Verify(&stream) == nil {
		t.Error("corrupted streamed token accepted")
	}
	short := *good
	short.Streamed = want[len(prompt) : len(want)-1]
	if ref.Verify(&short) == nil {
		t.Error("truncated stream accepted")
	}

	class, err := ref.m.ClassifyTokens(prompt)
	if err != nil {
		t.Fatal(err)
	}
	cls := &Record{Req: Request{Kind: Classify, Tokens: prompt}, Class: class}
	if err := ref.Verify(cls); err != nil {
		t.Fatalf("exact class rejected: %v", err)
	}
	cls.Class = (class + 1) % cfg.NumClasses
	if ref.Verify(cls) == nil {
		t.Error("wrong class accepted")
	}
}

func TestCheckMarksWrongOutputsFailed(t *testing.T) {
	ref, err := NewReference(model.TinyDecoder())
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3}
	class, err := ref.m.ClassifyTokens(prompt)
	if err != nil {
		t.Fatal(err)
	}
	right := &Record{Req: Request{Seq: 0, Kind: Classify, Tokens: prompt}, Class: class}
	wrong := &Record{Req: Request{Seq: 1, Kind: Classify, Tokens: prompt}, Class: 1 - class}
	ref.Check([]*Record{right, wrong}, 2)
	if right.Err != nil || wrong.Err == nil {
		t.Fatalf("after Check: right err=%v, wrong err=%v", right.Err, wrong.Err)
	}
	res := report(testWriter{t}, Metrics{}, nil, 2, &Window{Records: []*Record{right, wrong}})
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("report = %+v, want incorrect with 1 of 2 failed", res)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) { w.t.Log(string(p)); return len(p), nil }

func TestSourceSameSeedSameInputsNoSharedPrompt(t *testing.T) {
	for name, spec := range Workloads {
		a, b := NewSource(spec, 42), NewSource(spec, 42)
		other := NewSource(spec, 43)
		seen := make(map[string]bool)
		differs := false
		for i := 0; i < 500; i++ {
			ra, rb, ro := a.Next(), b.Next(), other.Next()
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("%s: request %d differs for the same seed: %+v vs %+v", name, i, ra, rb)
			}
			differs = differs || !reflect.DeepEqual(ra, ro)
			key := promptKey(ra.Tokens)
			if seen[key] {
				t.Fatalf("%s: request %d repeats prompt %v", name, i, ra.Tokens)
			}
			seen[key] = true
			if n := len(ra.Tokens); n < spec.PromptMin || n > spec.PromptMax {
				t.Fatalf("%s: prompt length %d outside %d..%d", name, n, spec.PromptMin, spec.PromptMax)
			}
			if ra.Kind == Generate && (ra.Steps < spec.StepsMin || ra.Steps > spec.StepsMax) {
				t.Fatalf("%s: steps %d outside %d..%d", name, ra.Steps, spec.StepsMin, spec.StepsMax)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 drew identical requests", name)
		}
	}
}

func TestSourceRedrawsRepeatedPrompts(t *testing.T) {
	// 100 one-token prompts exist; every one of the 100 draws must differ.
	spec := Spec{Name: "one-token", Model: model.Tiny(), PromptMin: 1, PromptMax: 1}
	src := NewSource(spec, 7)
	seen := make(map[int]bool)
	for i := 0; i < spec.Model.VocabSize; i++ {
		tok := src.Next().Tokens[0]
		if seen[tok] {
			t.Fatalf("draw %d repeats prompt [%d]", i, tok)
		}
		seen[tok] = true
	}
}

func TestWorkloadsValid(t *testing.T) {
	for name, spec := range Workloads {
		if name != spec.Name {
			t.Errorf("workload %q is named %q", name, spec.Name)
		}
		if err := spec.validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestCoverage(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{Start: at(0), End: at(4)},
		{Start: at(2), End: at(6)}, // overlaps the first
		{Start: at(8), End: at(9)},
		{Start: at(12), End: at(20)}, // runs past the window
	}
	if got, want := coverage(spans, at(1), at(15)), 9*time.Millisecond; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

// TestEndToEndMatchesManifest checks that a window of either kind of
// request reports exactly the end-to-end metrics BENCHMARK.json lists.
func TestEndToEndMatchesManifest(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	for name, spec := range Workloads {
		src := NewSource(spec, 1)
		w := &Window{Start: at(0)}
		for i := 0; i < 60; i++ {
			r := &Record{Req: src.Next(), Sent: at(100 * i), First: at(100*i + 40), End: at(100*i + 90)}
			if r.Req.Kind == Generate {
				r.Streamed = []int{1, 2, 3}
				r.Gaps = []float64{20, 30}
			}
			w.Records = append(w.Records, r)
		}
		// runEndToEnd reports set-up time and heap beside the window's metrics.
		out := Metrics{"setup_s": {3, "s"}, "heap_mb": {900, "MB"}}
		if invalid := EndToEnd(spec, w, out, io.Discard); len(invalid) > 0 {
			t.Errorf("%s: run marked invalid: %v", name, invalid)
		}
		if err := checkManifest(filepath.Join("..", "BENCHMARK.json"), false, out); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for m, v := range out {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %g, want a positive value", name, m, v.Value)
			}
		}
	}
}

func TestCheckManifestRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	manifest := `{"end_to_end": [{"name": "a_ms", "unit": "ms"}], "per_layer": [{"name": "b", "unit": "count"}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traced bool
		m      Metrics
		ok     bool
	}{
		{false, Metrics{"a_ms": {1, "ms"}}, true},
		{true, Metrics{"b": {1, "count"}}, true},
		{false, Metrics{}, false},                                     // missing
		{false, Metrics{"a_ms": {1, "s"}}, false},                     // wrong unit
		{false, Metrics{"a_ms": {1, "ms"}, "b": {1, "count"}}, false}, // extra
		{true, Metrics{"a_ms": {1, "ms"}}, false},                     // end-to-end on a traced run
	} {
		if err := checkManifest(path, tc.traced, tc.m); (err == nil) != tc.ok {
			t.Errorf("checkManifest(traced=%v, %v) = %v, want ok=%v", tc.traced, tc.m, err, tc.ok)
		}
	}
}

// TestDeckPairsMirrorAndCoverRange checks that each pair of deals asks for
// the range's mean between them and that every value comes up equally often.
func TestDeckPairsMirrorAndCoverRange(t *testing.T) {
	for _, r := range [][2]int{{8, 32}, {8, 24}, {16, 48}, {5, 5}} {
		lo, hi := r[0], r[1]
		d := newDeck(lo, hi)
		rng := rand.New(rand.NewSource(7))
		count := make(map[int]int)
		const rounds = 4
		for i := 0; i < rounds*(hi-lo+1); i++ {
			a, b := d.deal(rng), d.deal(rng)
			if a+b != lo+hi {
				t.Fatalf("%d..%d: pair %d, %d does not sum to %d", lo, hi, a, b, lo+hi)
			}
			count[a]++
			count[b]++
		}
		for v := lo; v <= hi; v++ {
			if count[v] != 2*rounds {
				t.Errorf("%d..%d: value %d dealt %d times, want %d", lo, hi, v, count[v], 2*rounds)
			}
		}
	}
}
