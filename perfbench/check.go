package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"voltage/internal/model"
)

// errWrongOutput marks a request whose output differs from the reference.
var errWrongOutput = errors.New("wrong output")

// Reference recomputes outputs on one device: the model is built by
// model.NewRandom from the same weight seed the engine uses, so the
// distributed outputs must match it exactly.
type Reference struct {
	m *model.Model
}

// NewReference builds the single-device reference for cfg.
func NewReference(cfg model.Config) (*Reference, error) {
	m, err := model.NewRandom(cfg, weightSeed)
	if err != nil {
		return nil, fmt.Errorf("reference model: %w", err)
	}
	return &Reference{m: m}, nil
}

// Verify returns an error when rec's output differs from the reference: the
// class for classify, and for generate the full token sequence on the
// summary line and the streamed tokens that precede it.
func (ref *Reference) Verify(rec *Record) error {
	r := rec.Req
	if r.Kind == Classify {
		want, err := ref.m.ClassifyTokens(r.Tokens)
		if err != nil {
			return fmt.Errorf("reference classify: %w", err)
		}
		if rec.Class != want {
			return fmt.Errorf("request %d: class %d, reference %d", r.Seq, rec.Class, want)
		}
		return nil
	}
	want, err := ref.m.GenerateIncremental(r.Tokens, r.Steps)
	if err != nil {
		return fmt.Errorf("reference generate: %w", err)
	}
	if !slices.Equal(rec.Tokens, want) {
		return fmt.Errorf("request %d: tokens %v, reference %v", r.Seq, rec.Tokens, want)
	}
	if !slices.Equal(append(slices.Clone(r.Tokens), rec.Streamed...), want) {
		return fmt.Errorf("request %d: streamed %v, reference continuation %v", r.Seq, rec.Streamed, want[len(r.Tokens):])
	}
	return nil
}

// sampleForCheck picks n of the successful records, chosen from seed (all of
// them when there are no more than n).
func sampleForCheck(recs []*Record, n int, seed int64) []*Record {
	var ok []*Record
	for _, r := range recs {
		if r.ok() {
			ok = append(ok, r)
		}
	}
	if len(ok) <= n {
		return ok
	}
	var out []*Record
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(ok))[:n] {
		out = append(out, ok[i])
	}
	return out
}

// Check verifies the chosen records with `workers` goroutines. A record
// that fails verification gets its Err set, so it counts as failed.
func (ref *Reference) Check(recs []*Record, workers int) {
	var wg sync.WaitGroup
	next := make(chan *Record)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				if err := ref.Verify(r); err != nil {
					r.Err = fmt.Errorf("%w: %v", errWrongOutput, err)
				}
			}
		}()
	}
	for _, r := range recs {
		next <- r
	}
	close(next)
	wg.Wait()
}
