package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/activetime"
	"repro/internal/core"
	"repro/internal/lp"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run writes them out. A
// nil *tracer records nothing, so untraced code passes nil.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (tr *tracer) begin(name string, parent, op int) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.epoch).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	now := time.Since(tr.epoch).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// timed runs f inside a span and returns its wall time in ms; on a nil
// tracer it only times f.
func (tr *tracer) timed(name string, parent, op int, f func()) float64 {
	id := tr.begin(name, parent, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.end(id)
	return millis(d)
}

// selfTimes returns, by span name, each span's duration minus the part of
// it that its child spans cover, in ms.
func (tr *tracer) selfTimes() map[string][]float64 {
	kids := make([][]int, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make(map[string][]float64)
	for _, s := range tr.spans {
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			c := tr.spans[k]
			if lo, hi := max(c.Start, s.Start), min(c.End, s.End); hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, v := range iv {
			if lo := max(v[0], reach); v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// printSelfTimes prints, per span name, the span count and the median and
// total self time, largest total first.
func (tr *tracer) printSelfTimes(out io.Writer) {
	self := tr.selfTimes()
	total := make(map[string]float64, len(self))
	names := make([]string, 0, len(self))
	for n, xs := range self {
		for _, x := range xs {
			total[n] += x
		}
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return total[names[a]] > total[names[b]] })
	fmt.Fprintln(out, "self time by span (traced window and layer pass):")
	for _, n := range names {
		fmt.Fprintf(out, "  %-40s %7d spans  p50 %10.3f ms  total %12.1f ms\n", n, len(self[n]), quantile(self[n], 0.5), total[n])
	}
}

func (tr *tracer) write(path string, mach machineInfo, cfg config) error {
	b, err := json.Marshal(struct {
		Machine  machineInfo `json:"machine"`
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Spans    []span      `json:"spans"`
	}{mach, cfg.Workload, cfg.Seed, tr.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOp numbers the layer pass's ops apart from the window's.
const layerOp = 1 << 30

// layerMetrics runs the traced run's untimed layer pass and returns every
// per-layer metric. An instance pass calls each library layer once per
// distinct instance; SolveLP and CheckFeasible run on their own because
// RoundLP does not return its LP's counters. A serving pass replays the
// first DigestOps ops of each serve-stream client through a fresh
// activeserve, then the primaries' mutations directly on
// activetime.Session, which splits session time from server time. The Go
// runtime and trace-overhead figures come from the traced window itself, and
// rss is the peak RSS, in MB, of the process that did the window's work.
func layerMetrics(cfg config, tr *tracer, tl *tally, win *window, rss float64) (map[string]metric, error) {
	m := make(map[string]metric)
	instancePass(cfg, tr, tl, m)
	if err := servePass(cfg, tr, tl, m); err != nil {
		return nil, err
	}
	ops := float64(len(win.lat))
	m["go.alloc_mb_per_op"] = metric{ratio(float64(win.allocBytes)/1e6, ops), "MB/op"}
	m["go.gc_per_op"] = metric{ratio(float64(win.numGC), ops), "count"}
	m["go.peak_rss_mb"] = metric{rss, "MB"}
	m["trace.overhead_frac"] = metric{win.traceOverhead(), "ratio"}
	return m, nil
}

// instancePass calls every library layer once per distinct instance.
// Counts are means per instance and times medians, except the totals
// round_repairs and lp.cold_fallbacks, which must stay 0.
func instancePass(cfg config, tr *tracer, tl *tally, m map[string]metric) {
	var (
		kern                                          lp.KernelStats
		pivots, refactors, rounds, cuts, purged, cold int
		flowChecks, roundCold, repairs                int
		probes, free, augments, minimalCold           int
		solveMs, flowMs, verifyMs, minimalMs, certMs  []float64
		shiftMs, sweepMs, assignMs                    []float64
	)
	ins := instances(cfg, cfg.Counted)
	for i, in := range ins {
		op := layerOp + i
		root := tr.begin("layer.instance", -1, op)
		var lpres *activetime.LPResult
		var err error
		solveMs = append(solveMs, tr.timed("activetime.SolveLP", root, op, func() { lpres, err = activetime.SolveLP(in) }))
		if err == nil {
			pivots += lpres.Pivots
			refactors += lpres.Refactors
			rounds += lpres.Rounds
			cuts += lpres.Cuts
			purged += lpres.Purged
			cold += lpres.ColdFallbacks
			kern.Accumulate(lpres.Kernel)
			err = expect(lpres.ColdFallbacks == 0, "instance %d: SolveLP took %d warm-start fallbacks", i, lpres.ColdFallbacks)
		}
		tl.note(err)

		slots := activetime.AllSlots(in)
		var ok bool
		flowMs = append(flowMs, tr.timed("activetime.CheckFeasible", root, op, func() { ok = activetime.CheckFeasible(in, slots) }))
		tl.note(expect(ok, "instance %d is infeasible with every slot open", i))

		var rr *activetime.RoundingResult
		tr.timed("activetime.RoundLP", root, op, func() { rr, err = activetime.RoundLP(in) })
		if err == nil {
			shiftMs = append(shiftMs, rr.ShiftMillis)
			sweepMs = append(sweepMs, rr.SweepMillis)
			assignMs = append(assignMs, rr.AssignMillis)
			flowChecks += rr.FlowChecks
			roundCold += rr.ColdFlows
			repairs += rr.Repairs
			verifyMs = append(verifyMs, tr.timed("core.VerifyActive", root, op, func() { err = core.VerifyActive(in, rr.Schedule) }))
			if err == nil {
				err = checkRounding(rr)
			}
		}
		tl.note(err)

		var mr *activetime.MinimalResult
		minimalMs = append(minimalMs, tr.timed("activetime.MinimalFeasibleStats", root, op, func() {
			mr, err = activetime.MinimalFeasibleStats(in, activetime.MinimalOptions{Strategy: activetime.CloseRightToLeft})
		}))
		if err == nil {
			probes += mr.Probes
			free += mr.FreeCloses
			augments += mr.FlowAugments
			minimalCold += mr.ColdFlows
			certMs = append(certMs, tr.timed("activetime.BuildTheorem1Certificate", root, op, func() {
				_, err = activetime.BuildTheorem1Certificate(in, mr.Schedule)
			}))
		}
		tl.note(err)
		tr.end(root)
	}
	n := float64(len(ins))
	m["lp.pivots"] = metric{float64(pivots) / n, "count"}
	m["lp.refactors"] = metric{float64(refactors) / n, "count"}
	m["lp.forced_refactors"] = metric{float64(kern.ForcedRefactors) / n, "count"}
	m["lp.ft_updates"] = metric{float64(kern.FTUpdates) / n, "count"}
	m["lp.hyper_share"] = metric{kern.HyperShare(), "ratio"}
	m["lp.ftran_avg_nnz"] = metric{kern.FtranAvgNNZ(), "count"}
	m["lp.btran_avg_nnz"] = metric{kern.BtranAvgNNZ(), "count"}
	m["lp.cold_fallbacks"] = metric{float64(cold), "count"}
	m["activetime.solve_lp_ms"] = metric{quantile(solveMs, 0.5), "ms"}
	m["activetime.rounds"] = metric{float64(rounds) / n, "count"}
	m["activetime.cuts"] = metric{float64(cuts) / n, "count"}
	m["activetime.purged"] = metric{float64(purged) / n, "count"}
	m["activetime.round_shift_ms"] = metric{quantile(shiftMs, 0.5), "ms"}
	m["activetime.round_sweep_ms"] = metric{quantile(sweepMs, 0.5), "ms"}
	m["activetime.round_assign_ms"] = metric{quantile(assignMs, 0.5), "ms"}
	m["activetime.round_flow_checks"] = metric{float64(flowChecks) / n, "count"}
	m["activetime.round_cold_flows"] = metric{float64(roundCold) / n, "count"}
	m["activetime.round_repairs"] = metric{float64(repairs), "count"}
	m["activetime.minimal_ms"] = metric{quantile(minimalMs, 0.5), "ms"}
	m["activetime.minimal_probes"] = metric{float64(probes) / n, "count"}
	m["activetime.minimal_free_share"] = metric{ratio(float64(free), float64(probes)), "ratio"}
	m["activetime.minimal_flow_augments"] = metric{float64(augments) / n, "count"}
	m["activetime.minimal_cold_flows"] = metric{float64(minimalCold) / n, "count"}
	m["activetime.certificate_ms"] = metric{quantile(certMs, 0.5), "ms"}
	m["flow.cold_maxflow_ms"] = metric{quantile(flowMs, 0.5), "ms"}
	m["core.verify_ms"] = metric{quantile(verifyMs, 0.5), "ms"}
}

// servePass replays the first DigestOps ops of each serve-stream client
// through a fresh server, then replays the primaries' mutations, each
// followed by a re-solve, directly on activetime.Session. The Session must
// serve the same objective in the same pivots as the server did.
func servePass(cfg config, tr *tracer, tl *tally, m map[string]metric) error {
	s := &serveStream{cfg: cfg}
	defer s.close()
	if err := s.setup(); err != nil {
		return fmt.Errorf("serving pass set-up: %w", err)
	}
	pid := s.srv.cmd.Process.Pid
	cpu0, err := cpuMillis(pid)
	if err != nil {
		return err
	}
	s.measure(0, tr, tl)
	cpu1, err := cpuMillis(pid)
	if err != nil {
		return err
	}
	mt, err := s.srv.metrics()
	if err != nil {
		return err
	}
	s.close()
	tl.note(expect(mt["coldFallbacks"] == 0, "server counted %d warm-start fallbacks, want 0", mt["coldFallbacks"]))

	var add, remove, get, hit, mutate []float64
	var bytes, reqs float64
	byTenant := make(map[string][]record)
	for _, c := range s.clients {
		for _, r := range c.records {
			reqs++
			bytes += float64(r.bytes)
			switch {
			case r.req.mirror:
				if r.sol.Cached {
					hit = append(hit, r.ms)
				}
			case r.req.kind == "get":
				get = append(get, r.ms)
			case r.req.kind == "add":
				add = append(add, r.ms)
			default:
				remove = append(remove, r.ms)
			}
			if !r.req.mirror && r.req.kind != "get" {
				mutate = append(mutate, r.ms)
				byTenant[r.req.tenant] = append(byTenant[r.req.tenant], r)
			}
		}
	}

	var sessAdd, sessRemove, sessSolve, direct []float64
	var deltaPivots, resolves, rebuilds, removes, fallbacks int
	for i, in := range s.base {
		name := tenantName(i, false)
		sess, err := activetime.NewSession(in)
		if err == nil {
			_, err = sess.Solve()
		}
		if err != nil {
			return fmt.Errorf("session replay of %s: %w", name, err)
		}
		for k, r := range byTenant[name] {
			op := layerOp + (i+1)<<20 + k
			root := tr.begin("layer.session", -1, op)
			var d float64
			if r.req.kind == "add" {
				d = tr.timed("activetime.Session.AddJobs", root, op, func() { err = sess.AddJobs(r.req.jobs) })
				sessAdd = append(sessAdd, d)
			} else {
				d = tr.timed("activetime.Session.RemoveJobs", root, op, func() { err = sess.RemoveJobs(r.req.ids) })
				sessRemove = append(sessRemove, d)
			}
			var res *activetime.LPResult
			if err == nil {
				ds := tr.timed("activetime.Session.Solve", root, op, func() { res, err = sess.Solve() })
				sessSolve = append(sessSolve, ds)
				direct = append(direct, d+ds)
			}
			if err == nil {
				err = expect(res.Objective == r.sol.Objective && res.Pivots == r.sol.Pivots,
					"%s mutation %d: Session gives objective %v in %d pivots, the server served %v in %d",
					name, k, res.Objective, res.Pivots, r.sol.Objective, r.sol.Pivots)
			}
			tr.end(root)
			tl.note(err)
		}
		st := sess.Stats()
		deltaPivots += st.DeltaPivots
		resolves += st.Solves - 1
		rebuilds += st.ColdRebuilds
		removes += st.RemoveCalls
		fallbacks += st.ColdFallbacks
	}

	m["activetime.session_add_ms"] = metric{quantile(sessAdd, 0.5), "ms"}
	m["activetime.session_remove_ms"] = metric{quantile(sessRemove, 0.5), "ms"}
	m["activetime.session_resolve_ms"] = metric{quantile(sessSolve, 0.5), "ms"}
	m["activetime.session_delta_pivots"] = metric{ratio(float64(deltaPivots), float64(resolves)), "count"}
	m["activetime.session_warm_remove_share"] = metric{1 - ratio(float64(rebuilds), float64(removes)), "ratio"}
	m["activeserve.add_p50_ms"] = metric{quantile(add, 0.5), "ms"}
	m["activeserve.remove_p50_ms"] = metric{quantile(remove, 0.5), "ms"}
	m["activeserve.get_p50_ms"] = metric{quantile(get, 0.5), "ms"}
	m["activeserve.cache_hit_p50_ms"] = metric{quantile(hit, 0.5), "ms"}
	m["activeserve.overhead_ms"] = metric{quantile(mutate, 0.5) - quantile(direct, 0.5), "ms"}
	m["activeserve.cache_hit_rate"] = metric{ratio(float64(mt["cacheHits"]), float64(mt["cacheHits"]+mt["solves"])), "ratio"}
	m["activeserve.coalesced"] = metric{float64(mt["coalesced"]), "count"}
	m["activeserve.cold_rebuilds"] = metric{float64(mt["coldRebuilds"]), "count"}
	m["activeserve.response_kb"] = metric{ratio(bytes/1024, reqs), "KiB"}
	m["activeserve.server_cpu_ms_per_req"] = metric{ratio(cpu1-cpu0, reqs), "ms"}
	m["lp.cold_fallbacks"] = metric{m["lp.cold_fallbacks"].Value + float64(fallbacks+int(mt["coldFallbacks"])), "count"}
	return nil
}
