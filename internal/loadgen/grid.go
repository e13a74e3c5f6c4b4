package loadgen

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/core"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/sched"
	"voltage/internal/server"
)

// BenchSchema tags the grid runner's output files; compare/check sniff it.
const BenchSchema = "voltage-load/v1"

// GridConfig describes one experiment grid: the cross product of offered
// load × MaxBatch × worker count, each cell repeated Repeats times over a
// hermetic in-process gateway.
type GridConfig struct {
	Name  string `json:"name"`
	Issue int    `json:"issue,omitempty"`
	// Model/Layers/Seed build the in-process engine (defaults:
	// tiny-decoder, 1 layer, seed 1).
	Model  string `json:"model,omitempty"`
	Layers int    `json:"layers,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// Swept dimensions (defaults: workers [3], max_batch [1,8],
	// offered_rps [20,60], repeats 2).
	LocalWorkers []int     `json:"local_workers,omitempty"`
	MaxBatch     []int     `json:"max_batch,omitempty"`
	OfferedRPS   []float64 `json:"offered_rps,omitempty"`
	Repeats      int       `json:"repeats,omitempty"`
	// Fixed serving parameters.
	GatewayWorkers int     `json:"gateway_workers,omitempty"`
	BatchWindowMS  int     `json:"batch_window_ms,omitempty"`
	DeviceFlops    float64 `json:"device_flops,omitempty"`
	BandwidthMbps  float64 `json:"bandwidth_mbps,omitempty"`
	// Trace is the base trace; each cell overrides its RatePerSec with the
	// cell's offered load (open-loop arrivals).
	Trace TraceConfig `json:"trace"`
}

// withDefaults fills unset grid fields.
func (g GridConfig) withDefaults() GridConfig {
	if g.Name == "" {
		g.Name = "voltage-load"
	}
	if g.Model == "" {
		g.Model = "tiny-decoder"
	}
	if g.Layers == 0 {
		g.Layers = 1
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if len(g.LocalWorkers) == 0 {
		g.LocalWorkers = []int{3}
	}
	if len(g.MaxBatch) == 0 {
		g.MaxBatch = []int{1, 8}
	}
	if len(g.OfferedRPS) == 0 {
		g.OfferedRPS = []float64{20, 60}
	}
	if g.Repeats <= 0 {
		g.Repeats = 2
	}
	if g.GatewayWorkers <= 0 {
		g.GatewayWorkers = 8
	}
	if g.BatchWindowMS < 0 {
		g.BatchWindowMS = 0
	}
	return g
}

// LoadGridConfig reads a GridConfig JSON file.
func LoadGridConfig(path string) (GridConfig, error) {
	var cfg GridConfig
	b, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		return cfg, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	return cfg, cfg.Trace.Validate()
}

// BenchCell is one grid cell's result.
type BenchCell struct {
	Label      string   `json:"label"`
	OfferedRPS float64  `json:"offered_rps"`
	MaxBatch   int      `json:"max_batch"`
	Workers    int      `json:"workers"`
	Repeat     int      `json:"repeat"`
	Summary    *Summary `json:"summary"`
}

// BenchAggregate is the headline number later PRs are compared against:
// the best sustained throughput over the swept configurations, with each
// configuration's repeats averaged first.
type BenchAggregate struct {
	TokensPerSec  float64 `json:"tokens_per_sec"`
	ReqPerSec     float64 `json:"req_per_sec"`
	P99EndToEndMS float64 `json:"p99_e2e_ms"`
	BestConfig    string  `json:"best_config"`
}

// Bench is the BENCH_<pr>.json contract.
type Bench struct {
	Schema    string         `json:"schema"`
	Issue     int            `json:"issue,omitempty"`
	Name      string         `json:"name"`
	Host      string         `json:"host"`
	Grid      GridConfig     `json:"grid"`
	Cells     []BenchCell    `json:"cells"`
	Aggregate BenchAggregate `json:"aggregate"`
}

// RunGrid executes every cell of the grid over hermetic in-process
// gateways, streaming one table row per cell to progress (when non-nil).
func RunGrid(ctx context.Context, cfg GridConfig, progress io.Writer) (*Bench, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	mcfg, err := model.Presets(cfg.Model)
	if err != nil {
		return nil, err
	}
	if cfg.Layers > 0 {
		mcfg = mcfg.Scaled(cfg.Layers)
	}
	bench := &Bench{
		Schema: BenchSchema,
		Issue:  cfg.Issue,
		Name:   cfg.Name,
		Host:   runtime.GOOS + "/" + runtime.GOARCH,
		Grid:   cfg,
	}
	for _, workers := range cfg.LocalWorkers {
		for _, maxBatch := range cfg.MaxBatch {
			for _, rps := range cfg.OfferedRPS {
				for rep := 0; rep < cfg.Repeats; rep++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					cell := BenchCell{
						Label:      fmt.Sprintf("k=%d mb=%d rps=%g r=%d", workers, maxBatch, rps, rep),
						OfferedRPS: rps,
						MaxBatch:   maxBatch,
						Workers:    workers,
						Repeat:     rep,
					}
					sum, err := runCell(ctx, cfg, mcfg, workers, maxBatch, rps)
					if err != nil {
						return nil, fmt.Errorf("cell %s: %w", cell.Label, err)
					}
					cell.Summary = sum
					bench.Cells = append(bench.Cells, cell)
					if progress != nil {
						fmt.Fprintln(progress, sum.TableRow(cell.Label))
					}
				}
			}
		}
	}
	bench.Aggregate = aggregate(bench.Cells)
	return bench, nil
}

// runCell brings up one in-process gateway with the cell's serving
// parameters, replays the trace at the cell's offered load, and tears the
// gateway down.
func runCell(ctx context.Context, cfg GridConfig, mcfg model.Config, workers, maxBatch int, rps float64) (*Summary, error) {
	eng, err := core.New(mcfg, workers, cluster.Options{
		Seed:        cfg.Seed,
		MaxBatch:    maxBatch,
		BatchWindow: time.Duration(cfg.BatchWindowMS) * time.Millisecond,
		DeviceFlops: cfg.DeviceFlops,
		Profile:     netem.Profile{BandwidthMbps: cfg.BandwidthMbps},
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	gw, err := server.New(eng, server.Options{
		Registry: eng.Cluster().MetricsRegistry(),
		Sched:    sched.Options{Workers: cfg.GatewayWorkers},
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: gw.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		<-serveErr
	}()

	trace := cfg.Trace
	trace.RatePerSec = rps
	return NewRunner(trace, "http://"+ln.Addr().String()).Run(ctx)
}

// aggregate picks the best configuration: cells grouped by everything but
// the repeat index, repeats averaged, best mean tok/s wins. Request
// throughput and tail latency are the winner's own means, so the headline
// numbers all describe one real configuration.
func aggregate(cells []BenchCell) BenchAggregate {
	type acc struct {
		n              int
		tokPerSec, rps float64
		p99MS          float64
		label          string
	}
	groups := map[string]*acc{}
	for _, c := range cells {
		key := fmt.Sprintf("k=%d mb=%d rps=%g", c.Workers, c.MaxBatch, c.OfferedRPS)
		g := groups[key]
		if g == nil {
			g = &acc{label: key}
			groups[key] = g
		}
		g.n++
		g.tokPerSec += c.Summary.TokensPerSec
		g.rps += c.Summary.AchievedRPS
		p99 := c.Summary.Generate.E2EMS.P99
		if ip99 := c.Summary.Interactive.E2EMS.P99; ip99 > p99 {
			p99 = ip99
		}
		g.p99MS += p99
	}
	var best BenchAggregate
	for _, g := range groups {
		tok := g.tokPerSec / float64(g.n)
		if tok > best.TokensPerSec {
			best = BenchAggregate{
				TokensPerSec:  tok,
				ReqPerSec:     g.rps / float64(g.n),
				P99EndToEndMS: g.p99MS / float64(g.n),
				BestConfig:    g.label,
			}
		}
	}
	return best
}

// WriteBench writes the bench JSON and a sibling per-cell CSV
// (<path minus .json>.csv).
func WriteBench(b *Bench, path string) error {
	blob, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	csvPath := path
	if len(csvPath) > 5 && csvPath[len(csvPath)-5:] == ".json" {
		csvPath = csvPath[:len(csvPath)-5]
	}
	return writeCellCSV(b, csvPath+".csv")
}

// writeCellCSV renders one row per cell for spreadsheet digestion.
func writeCellCSV(b *Bench, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	defer cw.Flush()
	if err := cw.Write([]string{
		"workers", "max_batch", "offered_rps", "repeat",
		"achieved_rps", "tokens_per_sec",
		"interactive_ok", "interactive_shed", "interactive_e2e_p50_ms", "interactive_e2e_p99_ms",
		"generate_ok", "generate_shed", "generate_ttft_p95_ms", "generate_e2e_p99_ms",
		"server_shed_total",
	}); err != nil {
		return err
	}
	for _, c := range cells(b) {
		s := c.Summary
		var serverShed uint64
		if s.Server != nil {
			for _, n := range s.Server.Shed {
				serverShed += n
			}
		}
		row := []string{
			fmt.Sprint(c.Workers), fmt.Sprint(c.MaxBatch), fmt.Sprint(c.OfferedRPS), fmt.Sprint(c.Repeat),
			fmt.Sprintf("%.2f", s.AchievedRPS), fmt.Sprintf("%.2f", s.TokensPerSec),
			fmt.Sprint(s.Interactive.OK), fmt.Sprint(s.Interactive.Failed),
			fmt.Sprintf("%.2f", s.Interactive.E2EMS.P50), fmt.Sprintf("%.2f", s.Interactive.E2EMS.P99),
			fmt.Sprint(s.Generate.OK), fmt.Sprint(s.Generate.Failed),
			fmt.Sprintf("%.2f", s.Generate.TTFTMS.P95), fmt.Sprintf("%.2f", s.Generate.E2EMS.P99),
			fmt.Sprint(serverShed),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// cells guards against nil summaries (skipped cells never emit).
func cells(b *Bench) []BenchCell {
	out := b.Cells[:0:0]
	for _, c := range b.Cells {
		if c.Summary != nil {
			out = append(out, c)
		}
	}
	return out
}
