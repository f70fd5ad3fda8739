// Command perfbench is dpsim's same-machine benchmark. It runs one of
// three workloads (grid, fleet, paper) built from a seed, times it end to
// end for about a given number of host seconds, checks the simulator's
// outputs, and prints one JSON result object as its last line of output:
//
//	go run . --workload grid --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it instead runs the traced pass, which times calls into
// each layer from this package's own wrappers and prints per-layer
// metrics. README.md documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs are fingerprinted
// (fingerprints.json). Seed 2 is held back for checking performance
// claims on inputs a change was not tuned on.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: grid, fleet or paper")
	seed := flag.Uint64("seed", defaultSeed, "input seed (1 is fingerprinted, 2 is kept for claims)")
	seconds := flag.Float64("seconds", 30, "host seconds to spend in timed passes, at nominal pass speed")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	nominal, ok := nominalPassS[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: grid, fleet, paper)\n", *name)
		os.Exit(2)
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(*name, *seed, fullSize)
	} else {
		var ws []workload
		ws, err = passWorkloads(*name, *seed, fullSize, max(1, int(math.Round(*seconds/nominal))))
		if err == nil {
			res, err = runTimed(ws)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// minSetupReps and setupBudget size the repeated set-up before each
// pass: it runs at least minSetupReps times and until setupBudget has
// passed, and the pass contributes the median, scaled by the probe timed
// just before it. setup_s averages these over the run's passes. One
// set-up takes only microseconds, and on a shared host it flips between
// a fast state and one about 1.6× slower within a second, so a median
// over all set-ups would jump between the two states from run to run,
// while the mean over passes moves smoothly with the share of time spent
// in each.
const (
	minSetupReps = 15
	setupBudget  = 100 * time.Millisecond
)

// nominalPassS is each workload's pass time in host seconds on the
// 2-core reference host. --seconds buys round(seconds/nominal) passes,
// so the work a run measures does not depend on the host's speed.
var nominalPassS = map[string]float64{"grid": 3, "fleet": 3.3, "paper": 5}

// probeRefS is about the time of one probeOnce on the 2-core reference
// host: 0.037 s when its core is not shared, 0.049 s when it is. A
// pass's time metrics are its host seconds multiplied by probeRefS over
// the mean time of the probes timed just before and just after it:
// seconds at the reference host's speed. The mean, not the median,
// because a probe runs either at full speed or on a shared core, and the
// mean weighs the two by how often each occurred around the pass. The
// raw times go to standard error.
const probeRefS = 0.04

// passSeed is the input seed of pass k: the run's seed for the first
// (fingerprinted) pass, distinct derived seeds for the others, so the
// median over passes averages over inputs as well as over host noise.
func passSeed(seed uint64, k int) uint64 { return seed + uint64(k)<<32 }

// passWorkloads builds the workload of each timed pass.
func passWorkloads(name string, seed uint64, sz size, passes int) ([]workload, error) {
	ws := make([]workload, passes)
	for k := range ws {
		w, err := newWorkload(name, passSeed(seed, k), sz)
		if err != nil {
			return nil, err
		}
		ws[k] = w
	}
	return ws, nil
}

// endToEnd lists the untraced metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"jobs_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

// runTimed measures the untraced end-to-end metrics: for each workload,
// repeated set-ups of its inputs and then one timed pass, with the
// host-speed probe timed before the first pass and after every pass.
// Each pass's times are scaled to the reference host's speed by the
// probes on either side of it; each metric is the median over passes.
func runTimed(ws []workload) (*result, error) {
	var setup, wall, cpu, alloc, rate []float64
	var ck checks
	okPasses := 0
	before := probe(nil)
	for k, w := range ws {
		times, err := timeSetup(w)
		if err != nil {
			return nil, err
		}
		runtime.GC() // start every pass from the same heap state
		out, d, err := measure(w.pass)
		if err != nil {
			return nil, err
		}
		pc := w.check(out)
		ck.add(pc)
		if pc.failed == 0 {
			okPasses++
		}
		after := probe(nil)
		scale := probeRefS / mean(slices.Concat(before, after))
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: setup %.3gs wall %.4fs cpu %.4fs alloc %.1fMB jobs %d probe %.4fs scale %.4f\n",
			k, median(times), d.wall, d.cpu, d.allocMB, out.jobs, mean(after), scale)
		setup = append(setup, median(times)*probeRefS/mean(before))
		wall = append(wall, d.wall*scale)
		cpu = append(cpu, d.cpu*scale)
		alloc = append(alloc, d.allocMB)
		rate = append(rate, float64(out.jobs)/(d.wall*scale))
		before = after
	}
	values := map[string]float64{
		"setup_s":    mean(setup),
		"wall_s":     median(wall),
		"cpu_s":      median(cpu),
		"jobs_per_s": median(rate),
		"alloc_mb":   median(alloc),
		"max_rss_mb": maxRSSMB(),
		"ok_frac":    float64(okPasses) / float64(len(ws)),
	}
	res := &result{Metrics: make(map[string]metric, len(endToEnd))}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	ck.fill(res)
	return res, nil
}

// timeSetup repeats the workload's set-up and returns each one's time.
func timeSetup(w workload) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < minSetupReps || time.Since(start) < setupBudget {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// checks counts output checks: configurations (grid cells, paper
// figures) plus fingerprints attempted, and those that failed.
type checks struct{ attempted, failed int }

func (c *checks) add(o checks) { c.attempted += o.attempted; c.failed += o.failed }

func (c checks) fill(r *result) {
	r.Attempted, r.Failed = c.attempted, c.failed
	r.Correct = c.attempted > 0 && c.failed == 0
}

// delta is the host cost of one pass.
type delta struct{ wall, cpu, allocMB float64 }

// measure runs pass with the clock, CPU time and heap allocation read
// just outside it.
func measure(pass func() (*output, error)) (*output, delta, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, err := pass()
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	return out, delta{
		wall:    wall.Seconds(),
		cpu:     cpu1 - cpu0,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
	}, err
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// maxRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
