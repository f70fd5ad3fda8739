package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"dpsim/internal/core"
	"dpsim/internal/experiments"
	"dpsim/internal/lu"
	"dpsim/internal/metrics"
	"dpsim/internal/scenario"
	"dpsim/internal/sweep"
)

// workload is one benchmark input set. setup builds the program's inputs
// (timed, repeatedly, as setup_s); pass runs the timed region once;
// check verifies a pass's outputs after the clock has stopped; trace
// runs the layer-attributed pass.
type workload interface {
	setup() error
	pass() (*output, error)
	check(*output) checks
	trace() (layers, checks, error)
}

// output is what one pass produced.
type output struct {
	// jobs counts simulated jobs finished (paper: simulated LU
	// executions, measured plus predicted).
	jobs int
	// export is the fingerprinted output: the sweep's CSV, or the
	// rendered figure tables.
	export  []byte
	cells   []sweep.CellStats
	figures []figure
}

// figure is one regenerated paper figure: its table's row count and its
// measured/predicted pairs (Fig. 13's input).
type figure struct {
	rows    int
	samples []metrics.ErrorSample
}

// samples pools every figure's error samples.
func (o *output) samples() []metrics.ErrorSample {
	var all []metrics.ErrorSample
	for _, f := range o.figures {
		all = append(all, f.samples...)
	}
	return all
}

// size scales every workload; fullSize is the benchmark, toySize the
// package's own tests.
type size struct {
	gridJobs     int
	fleetJobs    int
	fleetMembers int
	paperSeeds   int
}

var fullSize = size{gridJobs: 1600, fleetJobs: 20000, fleetMembers: 32, paperSeeds: 3}

// fingerprints holds the SHA-256 of each workload's export at fullSize
// with defaultSeed.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

func newWorkload(name string, seed uint64, sz size) (workload, error) {
	var fps map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &fps); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	want := ""
	if seed == defaultSeed && sz == fullSize {
		want = fps[name]
	}
	switch name {
	case "grid":
		return newSweepWorkload(gridScenario(seed, sz), want)
	case "fleet":
		return newSweepWorkload(fleetScenario(seed, sz), want)
	case "paper":
		return &paperWorkload{setupArgs: experiments.Setup{Quick: true, Seeds: sz.paperSeeds, BaseSeed: seed}, want: want}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: grid, fleet, paper)", name)
}

// gridScenario is one fixed 128-node cluster under Poisson arrivals at a
// moderate and a near-saturation load, swept over four schedulers. The
// moldable policies (sjf-moldable, easy-backfill) saturate at the higher
// load, so their queues grow to hundreds of active jobs.
func gridScenario(seed uint64, sz size) map[string]any {
	return map[string]any{
		"name":       "bench-grid",
		"nodes":      []int{128},
		"loads":      []float64{0.45, 0.7},
		"schedulers": []string{"equipartition", "efficiency-greedy", "sjf-moldable", "easy-backfill"},
		"seed":       seed,
		"jobs":       sz.gridJobs,
		"mix": []map[string]any{
			{"kind": "synthetic", "phases": 4, "work_s": 2000, "comm": 0.02, "cv": 0.8, "max_nodes": 32, "weight": 3},
			{"kind": "stencil", "grid_n": 2592, "iterations": 40, "max_nodes": 64, "weight": 1},
		},
		"arrivals": []map[string]any{{"process": "poisson", "mean_interarrival_s": 10}},
	}
}

// fleetScenario is a federation of heterogeneous members (8/16/32 nodes,
// four scheduler kinds), three quarters of them on volatile capacity
// (churn, failures, spot reclaims with notice), with reconfiguration
// costs, at a light-to-moderate load that leaves members idle between
// jobs. It sweeps two admission × two routing policies.
func fleetScenario(seed uint64, sz size) map[string]any {
	const (
		meanInterarrivalS = 1.0
		load              = 0.8
	)
	// Capacity processes run past the last arrival, so every member
	// keeps changing capacity for the whole run.
	horizon := 1.5 * float64(sz.fleetJobs) * meanInterarrivalS / load
	schedulers := []any{
		"equipartition", "efficiency-greedy", "easy-backfill",
		map[string]any{"name": "malleable-hysteresis", "params": map[string]any{"epoch_s": 60}},
	}
	volatility := []map[string]any{
		nil,
		{"process": "churn", "mean_on_s": 1000, "mean_off_s": 200, "min_capacity": 2, "horizon_s": horizon},
		{"process": "failures", "mttf_s": 8000, "mttr_s": 600, "horizon_s": horizon},
		{"process": "spot", "reclaim_mean_s": 600, "reclaim_nodes": 2, "restore_mean_s": 1200, "notice_s": 120, "horizon_s": horizon},
	}
	clusters := make([]map[string]any, sz.fleetMembers)
	for i := range clusters {
		c := map[string]any{
			"name":      fmt.Sprintf("m%02d", i),
			"nodes":     []int{8, 16, 32}[i%3],
			"scheduler": schedulers[i%4],
		}
		if av := volatility[(i/4)%4]; av != nil {
			c["availability"] = av
		}
		clusters[i] = c
	}
	rate := load / meanInterarrivalS
	return map[string]any{
		"name":     "bench-fleet",
		"loads":    []float64{load},
		"seed":     seed,
		"jobs":     sz.fleetJobs,
		"reconfig": map[string]any{"redistribution_s_per_node": 0.2, "lost_work_s": 5},
		"mix": []map[string]any{
			{"kind": "synthetic", "phases": 3, "work_s": 400, "comm": 0.03, "cv": 0.7, "max_nodes": 8, "weight": 3},
			{"kind": "stencil", "grid_n": 1296, "iterations": 20, "max_nodes": 16, "weight": 1},
		},
		"arrivals": []map[string]any{{"process": "poisson", "mean_interarrival_s": meanInterarrivalS}},
		"federation": map[string]any{
			"clusters": clusters,
			"admissions": []any{"always",
				map[string]any{"name": "token-bucket", "params": map[string]any{"rate": 0.9 * rate, "burst": 20}}},
			"routings": []any{"least-loaded",
				map[string]any{"name": "weighted", "params": map[string]any{"free": 1, "queue": 2}}},
		},
	}
}

// sweepWorkload runs one scenario through sweep.Run on a single worker,
// leaving the host's second core to the garbage collector.
type sweepWorkload struct {
	doc  []byte // the scenario file the seed generated
	want string // expected export fingerprint; "" skips the check

	spec   *scenario.Spec
	cells  []sweep.Cell
	hashes []sweep.CellHash
}

func newSweepWorkload(doc map[string]any, want string) (*sweepWorkload, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return &sweepWorkload{doc: b, want: want}, nil
}

// setup loads and validates the scenario and expands and hashes its
// grid: the work a sweep does before its first simulated event.
func (w *sweepWorkload) setup() error {
	spec, err := scenario.Parse(w.doc)
	if err != nil {
		return err
	}
	w.spec = spec
	w.cells = sweep.Cells(spec)
	w.hashes = sweep.CellHashes(spec, w.cells)
	return nil
}

func (w *sweepWorkload) pass() (*output, error) {
	stats, err := sweep.Run(w.spec, sweep.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := sweep.WriteCSV(&csv, w.spec.Name, stats); err != nil {
		return nil, err
	}
	out := &output{export: csv.Bytes(), cells: stats}
	for _, st := range stats {
		out.jobs += st.Jobs
	}
	return out, nil
}

func (w *sweepWorkload) check(out *output) checks {
	ck := checkCells(out.cells, w.spec.Jobs)
	ck.add(checkFingerprint(out.export, w.want))
	return ck
}

// paperWorkload regenerates the paper's Figs. 8, 9, 11 and 12 at quick
// scale, and Fig. 13's error statistic from their samples. Table 1
// (host-timed, sizing its own work) and Fig. 10 (the same layers as
// Fig. 8) are left out.
type paperWorkload struct {
	setupArgs experiments.Setup
	want      string
}

// paperFigures are the regenerated figures, in output order.
var paperFigures = []struct {
	name string
	run  func(experiments.Setup) (*experiments.Table, []metrics.ErrorSample, error)
}{
	{"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9},
	{"fig11", experiments.Fig11},
	{"fig12", experiments.Fig12},
}

// setup builds one configuration's flow graph, virtual testbed and
// engine: the work before a configuration's first simulated event.
func (w *paperWorkload) setup() error {
	cfg := representativeConfig(w.setupArgs)
	app, err := lu.Build(cfg)
	if err != nil {
		return err
	}
	tb := testbedPlatform(w.setupArgs, cfg, 0)
	eng, err := core.New(engineConfig(app, tb, tb.DurationSource(), false))
	if err != nil {
		return err
	}
	app.Start(eng)
	return nil
}

func (w *paperWorkload) pass() (*output, error) { return w.runFigures(nil) }

// runFigures regenerates the figures, recording each one's host seconds
// in timings when it is non-nil.
func (w *paperWorkload) runFigures(timings layers) (*output, error) {
	out := &output{}
	var tables bytes.Buffer
	for _, f := range paperFigures {
		t0 := time.Now()
		t, samples, err := f.run(w.setupArgs)
		if timings != nil {
			timings["experiments."+f.name+"_s"] = time.Since(t0).Seconds()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		tables.WriteString(t.Render())
		out.figures = append(out.figures, figure{rows: len(t.Rows), samples: samples})
	}
	samples := out.samples()
	t, hist := experiments.Fig13(samples)
	tables.WriteString(t.Render())
	tables.WriteString(hist)
	out.export = tables.Bytes()
	// Each configuration is measured Seeds times and predicted once.
	out.jobs = len(samples) + len(samples)/filled(w.setupArgs).Seeds
	return out, nil
}

func (w *paperWorkload) check(out *output) checks {
	ck := checkFigures(out.figures)
	ck.add(checkFingerprint(out.export, w.want))
	return ck
}

// predErrPct is the Fig. 13 statistic: the mean of
// |predicted−measured|/measured over all error samples, in percent.
func predErrPct(samples []metrics.ErrorSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	return 100 * metrics.Stats(samples).MeanAbs
}
