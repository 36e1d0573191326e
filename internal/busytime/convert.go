package busytime

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// SpanMinimizer fixes non-preemptive start times for flexible jobs so as to
// (approximately) minimize the measure of the union of their execution
// intervals. This is the role played in the paper by the unbounded-g
// dynamic program of Khandekar et al. [9] (Theorem 4): its output span is
// OPT_inf, the strongest span lower bound for bounded g.
type SpanMinimizer interface {
	// MinimizeSpan returns a start time per job ID and the achieved span.
	MinimizeSpan(in *core.Instance) (map[int]core.Time, core.Time, error)
}

// Convert fixes every job's position with the given span minimizer and
// returns the induced interval-job instance (the paper's flexible-to-interval
// reduction in Section 4.3), together with the achieved span.
func Convert(in *core.Instance, sm SpanMinimizer) (*core.Instance, core.Time, error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	starts, span, err := sm.MinimizeSpan(in)
	if err != nil {
		return nil, 0, err
	}
	out := &core.Instance{Name: in.Name + "/interval", G: in.G, Jobs: make([]core.Job, len(in.Jobs))}
	for i, j := range in.Jobs {
		s, ok := starts[j.ID]
		if !ok {
			return nil, 0, fmt.Errorf("busytime: span minimizer missed job %d", j.ID)
		}
		if s < j.Release || s+j.Length > j.Deadline {
			return nil, 0, fmt.Errorf("busytime: span minimizer start %d outside window of %v", s, j)
		}
		out.Jobs[i] = core.Job{ID: j.ID, Release: s, Deadline: s + j.Length, Length: j.Length}
	}
	return out, span, nil
}

// IntervalAlgorithm is any busy-time algorithm for interval jobs.
type IntervalAlgorithm func(*core.Instance) (*core.BusySchedule, error)

// SolveFlexible runs the paper's two-step pipeline for flexible jobs:
// convert to interval jobs with the span minimizer, then pack with the given
// interval algorithm. With GreedyTracking and an exact span minimizer this
// is the paper's 3-approximation (Section 4.3); the returned schedule is
// feasible for the original instance because every fixed start lies in its
// job's window.
func SolveFlexible(in *core.Instance, sm SpanMinimizer, algo IntervalAlgorithm) (*core.BusySchedule, error) {
	conv, _, err := Convert(in, sm)
	if err != nil {
		return nil, err
	}
	return algo(conv)
}

// ExactSpan is an exact span minimizer by branch and bound over integral
// start times, for small instances; MaxNodes caps the search (default 4e6).
type ExactSpan struct {
	MaxNodes int64
}

// MinimizeSpan implements SpanMinimizer exactly.
func (e ExactSpan) MinimizeSpan(in *core.Instance) (map[int]core.Time, core.Time, error) {
	maxNodes := e.MaxNodes
	if maxNodes == 0 {
		maxNodes = 4_000_000
	}
	// Order jobs by decreasing length: rigid, long jobs first make the
	// union grow early and prune better.
	jobs := make([]core.Job, len(in.Jobs))
	copy(jobs, in.Jobs)
	sort.Slice(jobs, func(a, b int) bool {
		sa, sb := jobs[a].WindowLen()-jobs[a].Length, jobs[b].WindowLen()-jobs[b].Length
		if sa != sb {
			return sa < sb // least slack first
		}
		return jobs[a].Length > jobs[b].Length
	})
	s := &spanSearch{jobs: jobs, maxNodes: maxNodes}
	// Greedy warm start: right-aligned.
	warm := make([]core.Time, len(jobs))
	var ivs []core.Interval
	for i, j := range jobs {
		warm[i] = j.LatestStart()
		ivs = append(ivs, core.Interval{Start: warm[i], End: warm[i] + j.Length})
	}
	s.best = core.UnionMeasure(ivs)
	s.bestStarts = warm
	s.dfs(0, nil)
	if s.nodesExceeded {
		return nil, 0, fmt.Errorf("busytime: exact span search exceeded %d nodes", maxNodes)
	}
	starts := make(map[int]core.Time, len(jobs))
	for i, j := range jobs {
		starts[j.ID] = s.bestStarts[i]
	}
	return starts, s.best, nil
}

type spanSearch struct {
	jobs          []core.Job
	best          core.Time
	bestStarts    []core.Time
	nodes         int64
	maxNodes      int64
	nodesExceeded bool
}

func (s *spanSearch) dfs(idx int, placed []core.Interval) {
	if s.nodesExceeded {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.nodesExceeded = true
		return
	}
	cur := core.UnionMeasure(placed)
	if cur >= s.best {
		return
	}
	if idx == len(s.jobs) {
		s.best = cur
		starts := make([]core.Time, len(placed))
		for i, iv := range placed {
			starts[i] = iv.Start
		}
		s.bestStarts = starts
		return
	}
	j := s.jobs[idx]
	// Candidate starts ordered by marginal union growth.
	type cand struct {
		start  core.Time
		growth core.Time
	}
	var cands []cand
	for st := j.Release; st <= j.LatestStart(); st++ {
		iv := core.Interval{Start: st, End: st + j.Length}
		growth := core.UnionMeasure(append(append([]core.Interval(nil), placed...), iv)) - cur
		cands = append(cands, cand{st, growth})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].growth != cands[b].growth {
			return cands[a].growth < cands[b].growth
		}
		return cands[a].start < cands[b].start
	})
	for _, c := range cands {
		iv := core.Interval{Start: c.start, End: c.start + j.Length}
		s.dfs(idx+1, append(placed, iv))
	}
}

// HeuristicSpan is a fast span minimizer for larger instances: start with
// every job right-aligned at its deadline, then iteratively move single jobs
// to the aligned candidate position that most reduces the union, until a
// local optimum (substitution 2 in the repro package doc, doc.go; validated
// against ExactSpan on small instances by tests).
type HeuristicSpan struct {
	// MaxPasses bounds improvement sweeps (default 8).
	MaxPasses int
}

// MinimizeSpan implements SpanMinimizer heuristically; the result is always
// feasible, and its span upper-bounds the exact minimum.
func (h HeuristicSpan) MinimizeSpan(in *core.Instance) (map[int]core.Time, core.Time, error) {
	passes := h.MaxPasses
	if passes == 0 {
		passes = 8
	}
	n := len(in.Jobs)
	starts := make([]core.Time, n)
	for i, j := range in.Jobs {
		starts[i] = j.LatestStart()
	}
	unionOf := func() core.Time {
		ivs := make([]core.Interval, n)
		for i, j := range in.Jobs {
			ivs[i] = core.Interval{Start: starts[i], End: starts[i] + j.Length}
		}
		return core.UnionMeasure(ivs)
	}
	cur := unionOf()
	for pass := 0; pass < passes; pass++ {
		improved := false
		for i, j := range in.Jobs {
			if j.IsInterval() {
				continue
			}
			bestStart, bestVal := starts[i], cur
			for _, cand := range h.candidates(in, starts, i) {
				old := starts[i]
				starts[i] = cand
				if v := unionOf(); v < bestVal {
					bestVal, bestStart = v, cand
				}
				starts[i] = old
			}
			if bestVal < cur {
				starts[i] = bestStart
				cur = bestVal
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	out := make(map[int]core.Time, n)
	for i, j := range in.Jobs {
		out[j.ID] = starts[i]
	}
	return out, cur, nil
}

// candidates proposes aligned start positions for job i: window extremes and
// alignments against every other job's current placement.
func (h HeuristicSpan) candidates(in *core.Instance, starts []core.Time, i int) []core.Time {
	j := in.Jobs[i]
	set := map[core.Time]bool{j.Release: true, j.LatestStart(): true}
	for k, other := range in.Jobs {
		if k == i {
			continue
		}
		s, e := starts[k], starts[k]+other.Length
		for _, cand := range []core.Time{s, e, s - j.Length, e - j.Length} {
			if cand >= j.Release && cand <= j.LatestStart() {
				set[cand] = true
			}
		}
	}
	out := make([]core.Time, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
