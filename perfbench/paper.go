package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/experiments"
	"dpsim/internal/lu"
	"dpsim/internal/netmodel"
	"dpsim/internal/testbed"
)

// The engine overheads and simulator platform parameters the experiments
// package uses for every configuration. The traced re-drive must use the
// same values; its self-check fails if they drift.
const (
	perStepOverhead = 25 * eventq.Microsecond
	localLatency    = 20 * eventq.Microsecond
	controlBytes    = 64
	defaultBaseSeed = 0x5eed
	defaultSeeds    = 3
)

func simNetParams() netmodel.Params {
	return netmodel.Params{Latency: 150 * eventq.Microsecond, Bandwidth: 12.5e6, Contention: true}
}

func simCPUParams() cpumodel.Params {
	p := cpumodel.Defaults()
	p.RecvOverhead = 0.08
	p.SendOverhead = 0.035
	return p
}

// filled applies experiments.Setup's defaults.
func filled(s experiments.Setup) experiments.Setup {
	if s.Seeds <= 0 {
		s.Seeds = defaultSeeds
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = defaultBaseSeed
	}
	return s
}

// representativeConfig is one of Fig. 8's granularity rows: 16 column
// blocks on 4 nodes, mid-way between the suite's cheapest and costliest
// configurations.
func representativeConfig(s experiments.Setup) lu.Config {
	return lu.Config{N: s.N(), R: s.N() / 16, Nodes: 4}
}

func nodesFor(cfg lu.Config) int { return max(cfg.Nodes, cfg.MultNodes) }

// testbedPlatform is the virtual cluster of cfg's measured run i.
func testbedPlatform(s experiments.Setup, cfg lu.Config, i int) *testbed.Cluster {
	s = filled(s)
	return testbed.New(testbed.FastEthernetCluster(nodesFor(cfg), s.BaseSeed+uint64(i)*7919))
}

// engineConfig is the engine configuration experiments.MeasureAndPredict
// uses on either platform.
func engineConfig(app *lu.App, plat core.Platform, durations core.DurationSource, record bool) core.Config {
	return core.Config{
		Graph: app.Graph, Platform: plat, Durations: durations, NoAlloc: true,
		PerStepOverhead: perStepOverhead, LocalLatency: localLatency, ControlBytes: controlBytes,
		RecordDurations: record,
	}
}

// platformCalls accumulates one platform layer's calls.
type platformCalls struct {
	calls, bytes int64
	busy         time.Duration
}

// tracedPlatform times Send and Submit calls on a core.Platform. The
// completion callbacks run later, inside Engine.Run, and are not part of
// the call's time. A nil counter passes the call through untimed.
type tracedPlatform struct {
	core.Platform
	send, submit *platformCalls
}

func (p tracedPlatform) Send(src, dst int, size int64, done func()) {
	if p.send == nil {
		p.Platform.Send(src, dst, size, done)
		return
	}
	t0 := time.Now()
	p.Platform.Send(src, dst, size, done)
	p.send.busy += time.Since(t0)
	p.send.calls++
	p.send.bytes += size
}

func (p tracedPlatform) Submit(node int, work eventq.Duration, done func()) {
	if p.submit == nil {
		p.Platform.Submit(node, work, done)
		return
	}
	t0 := time.Now()
	p.Platform.Submit(node, work, done)
	p.submit.busy += time.Since(t0)
	p.submit.calls++
}

// luTracer accumulates the paper-side layers of re-driven LU runs.
type luTracer struct {
	build, run                 time.Duration
	steps, transfers, fired    uint64
	netSend, cpuSubmit, tbSend platformCalls
}

// runOnce builds and runs one LU configuration on plat.
func (t *luTracer) runOnce(cfg lu.Config, plat core.Platform, durations core.DurationSource, record bool) (*core.Engine, core.Result, error) {
	t0 := time.Now()
	app, err := lu.Build(cfg)
	t.build += time.Since(t0)
	if err != nil {
		return nil, core.Result{}, err
	}
	eng, err := core.New(engineConfig(app, plat, durations, record))
	if err != nil {
		return nil, core.Result{}, err
	}
	app.Start(eng)
	t0 = time.Now()
	res, err := eng.Run()
	t.run += time.Since(t0)
	t.steps += res.Steps
	t.transfers += res.Transfers
	t.fired += eng.Queue().Fired()
	return eng, res, err
}

// measureAndPredict re-drives experiments.MeasureAndPredict: Seeds
// measured runs on the testbed, then one prediction on the simulator
// platform with durations calibrated from the first measured run.
func (t *luTracer) measureAndPredict(cfg lu.Config, s experiments.Setup) (measured []float64, predicted float64, err error) {
	s = filled(s)
	var table map[string]eventq.Duration
	for i := 0; i < s.Seeds; i++ {
		tb := testbedPlatform(s, cfg, i)
		eng, res, err := t.runOnce(cfg, tracedPlatform{tb, &t.tbSend, nil}, tb.DurationSource(), i == 0)
		if err != nil {
			return nil, 0, fmt.Errorf("measured run %d: %w", i, err)
		}
		measured = append(measured, res.Elapsed.Seconds())
		if i == 0 {
			table = eng.DurationTable()
		}
	}
	sim := core.NewSimPlatform(nodesFor(cfg), simNetParams(), simCPUParams())
	_, res, err := t.runOnce(cfg, tracedPlatform{sim, &t.netSend, &t.cpuSubmit}, core.TableSource{Table: table}, false)
	if err != nil {
		return nil, 0, fmt.Errorf("predicted run: %w", err)
	}
	return measured, res.Elapsed.Seconds(), nil
}

func (t *luTracer) fill(l layers) {
	l["lu.build_s"] = t.build.Seconds()
	l["core.run_s"] = t.run.Seconds()
	l["core.steps"] = float64(t.steps)
	l["core.ns_per_step"] = perCall(t.run, int64(t.steps))
	l["core.transfers"] = float64(t.transfers)
	l["eventq.fired"] = float64(t.fired)
	l["netmodel.sends"] = float64(t.netSend.calls)
	l["netmodel.bytes"] = float64(t.netSend.bytes)
	l["netmodel.send_s"] = t.netSend.busy.Seconds()
	l["cpumodel.submits"] = float64(t.cpuSubmit.calls)
	l["cpumodel.submit_s"] = t.cpuSubmit.busy.Seconds()
	l["testbed.sends"] = float64(t.tbSend.calls)
	l["testbed.send_s"] = t.tbSend.busy.Seconds()
}

// trace times each figure, then re-drives the representative
// configuration behind platform wrappers and checks it against
// experiments.MeasureAndPredict bit for bit.
func (w *paperWorkload) trace() (layers, checks, error) {
	l := layers{}
	out, err := w.runFigures(l)
	if err != nil {
		return nil, checks{}, err
	}
	ck := w.check(out)
	l["experiments.pred_err_pct"] = predErrPct(out.samples())

	// The representative configuration runs behind the wrappers and
	// untraced through experiments.MeasureAndPredict, twice each, in
	// alternating order so that neither side is always the warmer one.
	cfg := representativeConfig(w.setupArgs)
	var tr *luTracer
	var traced, untraced time.Duration
	var ref *experiments.LURun
	var measured []float64
	var predicted float64
	reference := func() error {
		t0 := time.Now()
		var err error
		ref, err = experiments.MeasureAndPredict("ref", cfg, w.setupArgs)
		untraced += time.Since(t0)
		return err
	}
	redrive := func() error {
		tr = &luTracer{} // report the last re-drive's layers
		t0 := time.Now()
		var err error
		measured, predicted, err = tr.measureAndPredict(cfg, w.setupArgs)
		traced += time.Since(t0)
		return err
	}
	for _, f := range []func() error{reference, redrive, redrive, reference} {
		if err := f(); err != nil {
			return nil, checks{}, err
		}
	}
	tr.fill(l)
	l["trace_overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1

	ck.attempted++
	if !slices.Equal(measured, ref.Measured) || predicted != ref.Predicted {
		ck.failed++
		fmt.Fprintf(os.Stderr, "perfbench: traced LU re-drive measured %v predicted %v, MeasureAndPredict %v / %v\n",
			measured, predicted, ref.Measured, ref.Predicted)
	}
	return l, ck, nil
}
