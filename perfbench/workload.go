package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"voltage/internal/model"
)

// Kind is the endpoint a request goes to.
type Kind int

const (
	Classify Kind = iota // POST /v1/classify
	Generate             // POST /v1/generate (ndjson stream)
)

func (k Kind) String() string {
	if k == Generate {
		return "generate"
	}
	return "classify"
}

// Spec is one benchmark workload: the deployment it boots and the traffic it
// offers. The reasons for each workload are in README.md.
type Spec struct {
	Name      string
	Model     model.Config
	LinkMbps  float64 // per-device line rate; 0 leaves links unshaped
	Kind      Kind    // the endpoint every request goes to
	PromptMin int     // prompt length range, tokens, inclusive
	PromptMax int
	StepsMin  int // generated tokens per generate request, inclusive
	StepsMax  int
	// CheckSample is how many successful timed requests a run checks
	// against the single-device reference.
	CheckSample int
	SLO         SLO
}

// SLO holds a workload's per-request latency limits, in milliseconds. A
// request meets them when its first output comes within FirstMS of sending
// and every later output within GapMS of the one before. A classify has one
// output, the class, so only FirstMS applies to it.
type SLO struct {
	FirstMS float64
	GapMS   float64
}

// callers is fixed rather than read from the host so that a workload offers
// the same load everywhere; two is the core count of the host the workloads
// were sized on.
const callers = 2

const (
	devices = 3 // K emulated worker devices
	// setups is how many times a run boots the deployment to time set-up;
	// the last boot serves the load.
	setups = 3
)

// bertWidth is BERT-large's width cut to one layer. The last layer's
// partitions go straight to the terminal, so one layer has no All-Gather
// between devices; two layers would, but finish only about 45 requests in a
// 30 s window on a 2-core host, too few for a tail that stays measured when
// the host slows down. The All-Gather is timed by its own ladder rung.
func bertWidth() model.Config {
	c := model.BERTLarge().Scaled(1)
	c.Name = "bert-large-1l"
	return c
}

// gpt2Geometry is GPT-2's width and vocabulary cut to one layer, so the
// 768×50257 LM head dominates each decode step as it does per layer-token
// in the full model.
func gpt2Geometry() model.Config {
	c := model.GPT2().Scaled(1)
	c.Name = "gpt2-1l"
	return c
}

// Workloads lists the benchmark's workloads by name.
var Workloads = map[string]Spec{
	"classify-bert": {
		Name: "classify-bert", Model: bertWidth(), Kind: Classify,
		// 500 Mbps scaled by host compute (≈1 GMAC/s per core) over the
		// paper's device compute (≈25 GMAC/s): the paper's compute-to-link
		// ratio, as a constant so runs on any host offer the same links.
		LinkMbps:  20,
		PromptMin: 16, PromptMax: 48,
		CheckSample: 6,
		SLO:         SLO{FirstMS: 1500},
	},
	"generate-gpt2": {
		Name: "generate-gpt2", Model: gpt2Geometry(), Kind: Generate,
		PromptMin: 8, PromptMax: 32,
		StepsMin: 8, StepsMax: 24,
		CheckSample: 4,
		SLO:         SLO{FirstMS: 1500, GapMS: 1000},
	},
}

// Request is one generated input.
type Request struct {
	Seq    int
	Kind   Kind
	Tokens []int // classify input or generate prompt
	Steps  int   // generate only
}

// Source draws a workload's requests from its seed. The i-th request is the
// same for the same seed no matter how callers interleave, and no two
// requests share a prompt.
//
// Prompt lengths and step counts are dealt from shuffled decks that hold
// every value of their range once, each value followed by its mirror about
// the middle of the range. Any two consecutive requests therefore ask for
// the range's mean size between them, so a window of a few dozen requests
// does the same amount of work under every seed; only the order and the
// token ids change with the seed.
type Source struct {
	spec    Spec
	rng     *rand.Rand
	seen    map[string]bool
	seq     int
	lengths deck
	steps   deck
}

// deck deals the integers lo..hi in seeded random order, reshuffling each
// time it runs out. Every second deal is lo+hi minus the deal before it, so
// each value still comes up equally often.
type deck struct {
	values []int
	next   int
	sum    int  // lo+hi
	mirror bool // the next deal mirrors the last
	last   int
}

func newDeck(lo, hi int) deck {
	var v []int
	for i := lo; i <= hi; i++ {
		v = append(v, i)
	}
	return deck{values: v, next: len(v), sum: lo + hi}
}

func (d *deck) deal(rng *rand.Rand) int {
	if d.mirror {
		d.mirror = false
		return d.sum - d.last
	}
	if d.next == len(d.values) {
		rng.Shuffle(len(d.values), func(i, j int) { d.values[i], d.values[j] = d.values[j], d.values[i] })
		d.next = 0
	}
	d.last, d.mirror = d.values[d.next], true
	d.next++
	return d.last
}

// NewSource starts the request stream of spec for seed.
func NewSource(spec Spec, seed int64) *Source {
	return &Source{
		spec:    spec,
		rng:     rand.New(rand.NewSource(seed)),
		seen:    make(map[string]bool),
		lengths: newDeck(spec.PromptMin, spec.PromptMax),
		steps:   newDeck(spec.StepsMin, spec.StepsMax),
	}
}

// promptKey identifies a prompt; the tracing wrappers match a gateway
// request to its backend call by it.
func promptKey(tokens []int) string {
	var b strings.Builder
	for i, t := range tokens {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}

// Next returns the next request.
func (s *Source) Next() Request {
	sp := s.spec
	r := Request{Seq: s.seq, Kind: sp.Kind}
	s.seq++
	if r.Kind == Generate {
		r.Steps = s.steps.deal(s.rng)
	}
	n := s.lengths.deal(s.rng)
	for {
		toks := make([]int, n)
		for i := range toks {
			toks[i] = s.rng.Intn(sp.Model.VocabSize)
		}
		if k := promptKey(toks); !s.seen[k] {
			s.seen[k] = true
			r.Tokens = toks
			break
		}
	}
	return r
}

// validate rejects a spec whose inputs the model cannot take.
func (sp Spec) validate() error {
	if sp.PromptMin < 1 || sp.PromptMax < sp.PromptMin {
		return fmt.Errorf("%s: prompt range %d..%d", sp.Name, sp.PromptMin, sp.PromptMax)
	}
	if sp.Kind == Generate && (sp.StepsMin < 1 || sp.StepsMax < sp.StepsMin) {
		return fmt.Errorf("%s: steps range %d..%d", sp.Name, sp.StepsMin, sp.StepsMax)
	}
	if sp.PromptMax+sp.StepsMax > sp.Model.MaxSeq {
		return fmt.Errorf("%s: prompt %d + steps %d exceed max sequence %d",
			sp.Name, sp.PromptMax, sp.StepsMax, sp.Model.MaxSeq)
	}
	return nil
}
