package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"time"

	"dpsim/internal/appmodel"
	"dpsim/internal/availability"
	"dpsim/internal/cluster"
	"dpsim/internal/eventq"
	"dpsim/internal/federation"
	"dpsim/internal/rng"
	"dpsim/internal/scenario"
	"dpsim/internal/sched"
	"dpsim/internal/sweep"
)

// layers holds a traced pass's per-layer values by metric name.
type layers map[string]float64

// perLayer lists every per-layer metric with its unit, in report order.
// A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"sched.calls", "count"},
	{"sched.busy_s", "s"},
	{"sched.ns_per_call", "ns"},
	{"sched.active_mean", "count"},
	{"sched.active_max", "count"},
	{"sched.changed_frac", "frac"},
	{"cluster.events", "count"},
	{"cluster.step_s", "s"},
	{"cluster.ns_per_event", "ns"},
	{"cluster.inject_calls", "count"},
	{"cluster.inject_s", "s"},
	{"cluster.result_s", "s"},
	{"cluster.capacity_events", "count"},
	{"cluster.reallocations", "count"},
	{"availability.generate_s", "s"},
	{"availability.changes", "count"},
	{"federation.events", "count"},
	{"federation.step_s", "s"},
	{"federation.route_s", "s"},
	{"federation.route_ns_per_call", "ns"},
	{"federation.admit_s", "s"},
	{"federation.admitted_frac", "frac"},
	{"scenario.jobs", "count"},
	{"scenario.stream_s", "s"},
	{"sweep.runs", "count"},
	{"sweep.run_s", "s"},
	{"sweep.run_p50_s", "s"},
	{"sweep.export_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.fig12_s", "s"},
	{"experiments.pred_err_pct", "%"},
	{"lu.build_s", "s"},
	{"core.run_s", "s"},
	{"core.steps", "count"},
	{"core.ns_per_step", "ns"},
	{"core.transfers", "count"},
	{"eventq.fired", "count"},
	{"netmodel.sends", "count"},
	{"netmodel.bytes", "B"},
	{"netmodel.send_s", "s"},
	{"cpumodel.submits", "count"},
	{"cpumodel.submit_s", "s"},
	{"testbed.sends", "count"},
	{"testbed.send_s", "s"},
	{"trace_overhead_frac", "frac"},
}

// runTraced runs the workload's traced pass and reports every per-layer
// metric; the checks are its output checks plus the self-check that the
// wrapped re-drive reproduced the program's own results bit for bit.
func runTraced(name string, seed uint64, sz size) (*result, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		return nil, err
	}
	l, ck, err := w.trace()
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric, len(perLayer))}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{l[m.name], m.unit}
	}
	ck.fill(res)
	return res, nil
}

// cellTracer accumulates the cluster-side layers of re-driven cells. The
// program's own step primitives are called exactly as scenario.RunCell
// calls them; the tracer only reads the clock around each call. Times
// are self times: a call's duration minus the scheduler, admission and
// routing time nested inside it.
type cellTracer struct {
	schedCalls, schedChanged, activeSum int64
	activeMax                           int
	schedBusy                           time.Duration

	events               int64
	step, inject, result time.Duration
	injectCalls          int64
	capacityEvents       int64
	reallocations        int64

	generate time.Duration
	changes  int64

	fedEvents             int64
	fedStep, route, admit time.Duration
	routeCalls            int64
	offered, admitted     int64

	stream     time.Duration
	streamJobs int64
}

// nested is the time spent in wrapped policies so far.
func (t *cellTracer) nested() time.Duration { return t.schedBusy + t.route + t.admit }

// selfTime adds f's duration, less nested policy time, to acc.
func (t *cellTracer) selfTime(acc *time.Duration, f func()) {
	t0, n0 := time.Now(), t.nested()
	f()
	*acc += time.Since(t0) - (t.nested() - n0)
}

func (t *cellTracer) next(st *scenario.JobStream) (*cluster.Job, bool) {
	t0 := time.Now()
	j, ok := st.Next()
	t.stream += time.Since(t0)
	if ok {
		t.streamJobs++
	}
	return j, ok
}

func (t *cellTracer) generateChanges(av availability.Spec, nodes int, src *rng.Source) ([]availability.Change, error) {
	t0 := time.Now()
	changes, err := av.Generate(nodes, src)
	t.generate += time.Since(t0)
	t.changes += int64(len(changes))
	return changes, err
}

func (t *cellTracer) fill(l layers) {
	l["sched.calls"] = float64(t.schedCalls)
	l["sched.busy_s"] = t.schedBusy.Seconds()
	l["sched.ns_per_call"] = perCall(t.schedBusy, t.schedCalls)
	l["sched.active_mean"] = ratio(t.activeSum, t.schedCalls)
	l["sched.active_max"] = float64(t.activeMax)
	l["sched.changed_frac"] = ratio(t.schedChanged, t.schedCalls)
	l["cluster.events"] = float64(t.events)
	l["cluster.step_s"] = t.step.Seconds()
	l["cluster.ns_per_event"] = perCall(t.step, t.events)
	l["cluster.inject_calls"] = float64(t.injectCalls)
	l["cluster.inject_s"] = t.inject.Seconds()
	l["cluster.result_s"] = t.result.Seconds()
	l["cluster.capacity_events"] = float64(t.capacityEvents)
	l["cluster.reallocations"] = float64(t.reallocations)
	l["availability.generate_s"] = t.generate.Seconds()
	l["availability.changes"] = float64(t.changes)
	l["federation.events"] = float64(t.fedEvents)
	l["federation.step_s"] = t.fedStep.Seconds()
	l["federation.route_s"] = t.route.Seconds()
	l["federation.route_ns_per_call"] = perCall(t.route, t.routeCalls)
	l["federation.admit_s"] = t.admit.Seconds()
	l["federation.admitted_frac"] = ratio(t.admitted, t.offered)
	l["scenario.jobs"] = float64(t.streamJobs)
	l["scenario.stream_s"] = t.stream.Seconds()
}

func perCall(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedScheduler times each Allocate and counts the active jobs it saw
// and whether it changed any allocation.
type tracedScheduler struct {
	sched.Scheduler
	t *cellTracer
}

func (s tracedScheduler) Allocate(st sched.State, out []int) {
	t0 := time.Now()
	s.Scheduler.Allocate(st, out)
	s.t.schedBusy += time.Since(t0)
	s.t.schedCalls++
	n := len(st.Active)
	s.t.activeSum += int64(n)
	s.t.activeMax = max(s.t.activeMax, n)
	for i := range st.Active {
		if out[i] != st.Active[i].Alloc {
			s.t.schedChanged++
			break
		}
	}
}

type tracedAdmission struct {
	federation.Admission
	t *cellTracer
}

func (a tracedAdmission) Admit(now float64, j *cluster.Job) bool {
	t0 := time.Now()
	ok := a.Admission.Admit(now, j)
	a.t.admit += time.Since(t0)
	a.t.offered++
	if ok {
		a.t.admitted++
	}
	return ok
}

type tracedRouter struct {
	federation.Router
	t *cellTracer
}

func (r tracedRouter) Route(now float64, j *cluster.Job, views []federation.ClusterView) int {
	t0 := time.Now()
	idx := r.Router.Route(now, j, views)
	r.t.route += time.Since(t0)
	r.t.routeCalls++
	return idx
}

// newMemberSim builds one cluster behind a traced scheduler, with its
// capacity timeline and reconfiguration costs, as scenario.RunCell does.
func (t *cellTracer) newMemberSim(s *scenario.Spec, nodes int, policy sched.Scheduler, av *availability.Spec, avRng *rng.Source) (*cluster.Sim, error) {
	sim, err := cluster.NewSim(nodes, tracedScheduler{policy, t}, nil)
	if err != nil {
		return nil, err
	}
	if av != nil {
		changes, err := t.generateChanges(*av, nodes, avRng)
		if err != nil {
			return nil, err
		}
		if err := sim.SetCapacityChanges(changes); err != nil {
			return nil, err
		}
	}
	if s.Reconfig != nil {
		err := sim.SetReconfigCost(cluster.ReconfigCost{
			RedistributionSPerNode: s.Reconfig.RedistributionSPerNode,
			LostWorkS:              s.Reconfig.LostWorkS,
		})
		if err != nil {
			return nil, err
		}
	}
	return sim, nil
}

// runPlain re-drives one non-federated cell through the cluster step
// primitives in scenario.RunCell's order.
func (t *cellTracer) runPlain(s *scenario.Spec, c sweep.Cell, seed uint64) (*scenario.CellRun, error) {
	policy, err := s.Schedulers[c.SchedulerIdx].New()
	if err != nil {
		return nil, err
	}
	var model appmodel.AppModel
	if len(s.AppModels) > 0 && c.AppModelIdx >= 0 {
		if model, err = s.AppModels[c.AppModelIdx].New(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	stream, err := s.Stream(c.ArrivalIdx, c.Nodes, c.Load, seed)
	t.stream += time.Since(t0)
	if err != nil {
		return nil, err
	}
	stream.SetAppModel(model)
	// The job stream takes the first two forks of the cell seed, the
	// capacity timeline the third.
	base := rng.New(seed)
	base.Fork()
	base.Fork()
	var av *availability.Spec
	if len(s.Availability) > 0 && c.AvailIdx >= 0 {
		av = &s.Availability[c.AvailIdx]
	}
	sim, err := t.newMemberSim(s, c.Nodes, policy, av, base.Fork())
	if err != nil {
		return nil, err
	}
	pending, ok := t.next(stream)
	for {
		var et eventq.Time
		var evOK bool
		t.selfTime(&t.step, func() { et, evOK = sim.PeekNextEventTime() })
		if ok {
			at := eventq.Time(eventq.DurationOf(pending.Arrival))
			if !evOK || at <= et {
				t.injectCalls++
				t.selfTime(&t.inject, func() { err = sim.Inject(pending) })
				if err != nil {
					return nil, err
				}
				pending, ok = t.next(stream)
				continue
			}
		}
		if !evOK {
			break
		}
		t.events++
		t.selfTime(&t.step, func() { sim.ProcessNextEvent() })
	}
	run := &scenario.CellRun{}
	t.selfTime(&t.result, func() { run.Result = sim.Result() })
	t.capacityEvents += int64(run.Result.CapacityEvents)
	t.reallocations += int64(run.Result.Reallocations)
	return run, nil
}

// runFederated re-drives one federated cell in the order of scenario's
// federated RunCell path, with traced admission, routing and member
// schedulers. Member steps run inside federation.Sim.ProcessNextEvent,
// so their time is part of federation.step_s.
func (t *cellTracer) runFederated(s *scenario.Spec, c sweep.Cell, seed uint64) (*scenario.CellRun, error) {
	f := s.Federation
	admit, err := f.Admissions[c.AdmissionIdx].New()
	if err != nil {
		return nil, err
	}
	router, err := f.Routings[c.RoutingIdx].New()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stream, err := s.Stream(c.ArrivalIdx, c.Nodes, c.Load, seed)
	t.stream += time.Since(t0)
	if err != nil {
		return nil, err
	}
	// Each member's capacity timeline takes one fork after the stream's
	// two, whether or not the member is volatile.
	base := rng.New(seed)
	base.Fork()
	base.Fork()
	members := make([]federation.Member, len(f.Clusters))
	models := make([]appmodel.AppModel, len(f.Clusters))
	for i := range f.Clusters {
		mc := &f.Clusters[i]
		avRng := base.Fork()
		policy, err := mc.Scheduler.New()
		if err != nil {
			return nil, err
		}
		sim, err := t.newMemberSim(s, mc.Nodes, policy, mc.Availability, avRng)
		if err != nil {
			return nil, err
		}
		if mc.AppModel != nil {
			if models[i], err = mc.AppModel.New(); err != nil {
				return nil, err
			}
		}
		members[i] = federation.Member{Name: mc.Name, Sim: sim}
	}
	fed, err := federation.NewSim(members, tracedAdmission{admit, t}, tracedRouter{router, t})
	if err != nil {
		return nil, err
	}
	pending, ok := t.next(stream)
	for {
		var et eventq.Time
		var evOK bool
		t.selfTime(&t.fedStep, func() { et, evOK = fed.PeekNextEventTime() })
		if ok {
			at := eventq.Time(eventq.DurationOf(pending.Arrival))
			if !evOK || at <= et {
				var idx int
				var admitted bool
				t.selfTime(&t.fedStep, func() { idx, admitted, err = fed.Offer(pending) })
				if err != nil {
					return nil, err
				}
				if admitted {
					applyModel(pending, models[idx])
					t.injectCalls++
					t.selfTime(&t.inject, func() { err = fed.InjectInto(idx, pending) })
					if err != nil {
						return nil, err
					}
				}
				pending, ok = t.next(stream)
				continue
			}
		}
		if !evOK {
			break
		}
		t.events++
		t.fedEvents++
		t.selfTime(&t.fedStep, func() { fed.ProcessNextEvent() })
	}
	run := &scenario.CellRun{}
	t.selfTime(&t.result, func() {
		run.Result = fed.Merged()
		run.Rejected = fed.Rejected()
		run.Routed = fed.Routed()
		run.ClusterResults = fed.Results()
	})
	t.capacityEvents += int64(run.Result.CapacityEvents)
	t.reallocations += int64(run.Result.Reallocations)
	return run, nil
}

// applyModel gives a routed job its member's performance model the way
// the federated RunCell path does: cost-free comm-factor models are
// lowered onto Phase.Comm, any other model rides along as Job.Model.
func applyModel(j *cluster.Job, m appmodel.AppModel) {
	if m == nil {
		return
	}
	if cf, ok := m.(appmodel.CommFactor); ok && cf.Costs == (appmodel.Costs{}) {
		for i := range j.Phases {
			j.Phases[i].Comm = cf.C
		}
		return
	}
	j.Model = m
}

// runSeed is the seed sweep.Run gives replication rep of a cell: a pure
// function of the cell's content hash. The traced pass checks that its
// re-driven runs match the sweep's, so a change to sweep's derivation
// shows as a failed check rather than silently different work.
func runSeed(h sweep.CellHash, rep int) uint64 {
	s := rng.New(h.Seed64() ^ (uint64(rep+1) * 0x9e3779b97f4a7c15)).Uint64()
	return rng.New(s ^ 0xbf58476d1ce4e5b9).Uint64()
}

// trace runs the sweep untraced (timing the sweep layer from outside),
// re-drives every cell behind the wrappers, and checks each re-driven
// run against scenario.Spec.RunCell and against the sweep's aggregate.
// trace_overhead_frac compares the re-drives with the RunCell calls.
func (w *sweepWorkload) trace() (layers, checks, error) {
	l := layers{}
	var intervals []float64
	last := time.Now()
	start := last
	stats, err := sweep.Run(w.spec, sweep.Options{Workers: 1, Progress: func(done, total int) {
		now := time.Now()
		intervals = append(intervals, now.Sub(last).Seconds())
		last = now
	}})
	if err != nil {
		return nil, checks{}, err
	}
	l["sweep.runs"] = float64(len(intervals))
	l["sweep.run_s"] = time.Since(start).Seconds()
	l["sweep.run_p50_s"] = median(intervals)

	t0 := time.Now()
	var csv, js bytes.Buffer
	if err := sweep.WriteCSV(&csv, w.spec.Name, stats); err != nil {
		return nil, checks{}, err
	}
	if err := sweep.WriteJSON(&js, w.spec.Name, stats); err != nil {
		return nil, checks{}, err
	}
	l["sweep.export_s"] = time.Since(t0).Seconds()
	ck := w.check(&output{export: csv.Bytes(), cells: stats})

	// Each cell runs twice more: behind the wrappers, and untraced through
	// scenario.Spec.RunCell, which is the reference for both the
	// bit-identity check and trace_overhead_frac. The two alternate which
	// goes first, so neither side is always the warmer one.
	t := &cellTracer{}
	var traced, untraced time.Duration
	for i, c := range w.cells {
		seed := runSeed(w.hashes[i], 0)
		redrive := func() (*scenario.CellRun, error) {
			if w.spec.Federation != nil {
				return t.runFederated(w.spec, c, seed)
			}
			return t.runPlain(w.spec, c, seed)
		}
		reference := func() (*scenario.CellRun, error) {
			return w.spec.RunCell(scenario.CellParams{
				Nodes: c.Nodes, Load: c.Load,
				SchedulerIdx: c.SchedulerIdx, ArrivalIdx: c.ArrivalIdx, AvailIdx: c.AvailIdx,
				AppModelIdx: c.AppModelIdx, AdmissionIdx: c.AdmissionIdx, RoutingIdx: c.RoutingIdx,
				Seed: seed,
			})
		}
		var got, ref *scenario.CellRun
		var errGot, errRef error
		if i%2 == 0 {
			ref, errRef = timeRun(&untraced, reference)
			got, errGot = timeRun(&traced, redrive)
		} else {
			got, errGot = timeRun(&traced, redrive)
			ref, errRef = timeRun(&untraced, reference)
		}
		if errGot != nil {
			return nil, checks{}, fmt.Errorf("traced cell %d: %w", i, errGot)
		}
		if errRef != nil {
			return nil, checks{}, fmt.Errorf("cell %d: %w", i, errRef)
		}
		ck.add(selfCheck(fmt.Sprintf("cell %d", i), got, ref, stats[i]))
	}
	t.fill(l)
	l["trace_overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	return l, ck, nil
}

// timeRun calls f and adds its duration to acc.
func timeRun[T any](acc *time.Duration, f func() (T, error)) (T, error) {
	t0 := time.Now()
	v, err := f()
	*acc += time.Since(t0)
	return v, err
}

// selfCheck is one check: the re-driven run must equal RunCell's bit for
// bit (result, rejections, routing, member results), and must be the run
// the sweep aggregated (one replication, so the cell's mean makespan is
// the run's makespan).
func selfCheck(what string, got, want *scenario.CellRun, agg sweep.CellStats) checks {
	a, errA := encode(got.Result, got.Rejected, got.Routed, got.ClusterResults)
	b, errB := encode(want.Result, want.Rejected, want.Routed, want.ClusterResults)
	switch {
	case errA != nil || errB != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: encoding results: %v %v\n", what, errA, errB)
	case !bytes.Equal(a, b):
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced re-drive differs from RunCell\n", what)
	case agg.Replications != 1 || got.Result.Makespan != agg.MeanMakespan || len(got.Result.PerJob) != agg.Jobs:
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced re-drive is not the run the sweep aggregated\n", what)
	default:
		return checks{attempted: 1}
	}
	return checks{attempted: 1, failed: 1}
}

// encode serializes values bit-exactly (gob writes float64 bits).
func encode(vs ...any) ([]byte, error) {
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}
