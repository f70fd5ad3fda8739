package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"dpsim/internal/scenario"
	"dpsim/internal/sweep"
)

// toySize runs every workload in a few seconds.
var toySize = size{gridJobs: 40, fleetJobs: 150, fleetMembers: 4, paperSeeds: 1}

var workloadNames = []string{"grid", "fleet", "paper"}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares, so the test pins the file and the program to each other.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func assertMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
	}
}

func toyPasses(t *testing.T, name string, passes int) []workload {
	t.Helper()
	ws, err := passWorkloads(name, defaultSeed, toySize, passes)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestTimedRunEmitsEveryMetric(t *testing.T) {
	want, _ := benchmarkMetrics(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runTimed(toyPasses(t, name, 2))
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, res, want)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, %d of %d checks failed", res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("metric %s = %g, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunEmitsEveryMetricAndSelfChecks(t *testing.T) {
	_, want := benchmarkMetrics(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runTraced(name, defaultSeed, toySize)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, res, want)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct %v, %d of %d checks failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// corrupted damages a pass's output after the program produced it.
type corrupted struct {
	workload
	damage func(*output)
}

func (c corrupted) pass() (*output, error) {
	out, err := c.workload.pass()
	if err == nil {
		c.damage(out)
	}
	return out, err
}

func okFrac(t *testing.T, ws []workload) float64 {
	t.Helper()
	res, err := runTimed(ws)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct %v with %d failed checks, want a failure", res.Correct, res.Failed)
	}
	return res.Metrics["ok_frac"].Value
}

// TestCorruptedFingerprintFails runs as many passes as a benchmark run
// makes and corrupts only the fingerprinted one: ok_frac must still fall
// by more than its bound, so a changed simulation output never passes as
// noise.
func TestCorruptedFingerprintFails(t *testing.T) {
	runSeconds, bound := okFracGate(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ws := toyPasses(t, name, int(math.Round(runSeconds/nominalPassS[name])))
			switch w := ws[0].(type) {
			case *sweepWorkload:
				w.want = fingerprint([]byte("not the export"))
			case *paperWorkload:
				w.want = fingerprint([]byte("not the tables"))
			}
			if f := okFrac(t, ws); 1-f <= bound {
				t.Errorf("ok_frac %g over %d passes with a corrupted fingerprint, within the bound %g", f, len(ws), bound)
			}
		})
	}
}

// okFracGate reads the benchmark's run length and ok_frac's bound.
func okFracGate(t *testing.T) (runSeconds, bound float64) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		EndToEnd   []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		if m.Name == "ok_frac" {
			return doc.RunSeconds, m.Bound
		}
	}
	t.Fatal("BENCHMARK.json declares no ok_frac")
	return 0, 0
}

func TestInjectedInvariantViolationFails(t *testing.T) {
	damage := map[string]func(*output){
		"grid":  func(o *output) { o.cells[0].MeanUtilization = 1.5 },
		"fleet": func(o *output) { o.cells[1].Jobs-- },
		"paper": func(o *output) { o.figures[2].samples[0].Predicted = 0 },
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ws := toyPasses(t, name, 1)
			ws[0] = corrupted{ws[0], damage[name]}
			if f := okFrac(t, ws); f >= 1 {
				t.Errorf("ok_frac %g with an injected violation", f)
			}
		})
	}
}

func TestCellInvariants(t *testing.T) {
	good := sweep.CellStats{Replications: 2, Jobs: 15, Unfinished: 1, MeanRejected: 2,
		MeanResponse: 10, MeanWait: 3, MeanUtilization: 0.5}
	if err := cellInvariant(good, 10); err != nil {
		t.Fatalf("valid cell rejected: %v", err)
	}
	for name, bad := range map[string]func(*sweep.CellStats){
		"lost job":         func(c *sweep.CellStats) { c.Unfinished = 0 },
		"negative wait":    func(c *sweep.CellStats) { c.MeanWait = -1e-9 },
		"wait > response":  func(c *sweep.CellStats) { c.MeanWait = 11 },
		"utilization > 1":  func(c *sweep.CellStats) { c.MeanUtilization = 1.0001 },
		"NaN utilization":  func(c *sweep.CellStats) { c.MeanUtilization = math.NaN() },
		"over-counted job": func(c *sweep.CellStats) { c.Jobs++ },
	} {
		c := good
		bad(&c)
		if cellInvariant(c, 10) == nil {
			t.Errorf("%s: violation not caught", name)
		}
	}
}

func TestSelfCheckCatchesPerturbation(t *testing.T) {
	run := func() *scenario.CellRun {
		r := &scenario.CellRun{}
		r.Result.Makespan = 100
		r.Result.Utilization = 0.25
		return r
	}
	agg := sweep.CellStats{Replications: 1, MeanMakespan: 100}
	if ck := selfCheck("same", run(), run(), agg); ck.failed != 0 {
		t.Fatal("identical runs reported as different")
	}
	perturbed := run()
	perturbed.Result.Utilization = 0.25000000000000006 // one ulp
	if ck := selfCheck("perturbed", perturbed, run(), agg); ck.failed != 1 {
		t.Error("one-ulp difference not caught")
	}
	if ck := selfCheck("other run", run(), run(), sweep.CellStats{Replications: 1, MeanMakespan: 99}); ck.failed != 1 {
		t.Error("run the sweep did not aggregate not caught")
	}
}
