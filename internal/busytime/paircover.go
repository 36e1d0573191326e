package busytime

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/intervals"
)

// PairCover is a 2-approximation for busy time with interval jobs — the
// reconstruction of the Alicherry-Bhatia / Kumar-Rudra algorithms sketched
// in Appendix A of the paper (substitution 3 in the repro package doc,
// doc.go).
//
// Dummy interval jobs are first added so the raw demand over every
// interesting interval is a multiple of g (this never changes the demand
// profile). Then bundles are opened in pairs; each pair is filled by g
// peeling rounds. A round computes the maximal intervals where remaining
// demand is positive and covers each of them by the classical greedy chain
// (always extend with the available job reaching furthest): in such a chain
// only consecutive jobs overlap, so splitting it by parity yields two
// genuine tracks, one per bundle of the pair. Every round lowers every
// positive demand by at least one, so after g rounds the pair has consumed
// min(g, demand) everywhere, and the i-th pair spans only points whose
// original demand exceeded (i-1)g. Summing,
//
//	cost(PairCover) <= 2 · DeP(J) <= 2 · OPT(J),
//
// the same charging as the appendix; tests assert the first inequality on
// every run. (A first attempt routed two units of max flow per round, but
// unlike in Alicherry-Bhatia's richer wavelength graph, two edge-disjoint
// forward paths need not exist here even when every vertical cut has
// capacity 2 — the greedy chain with parity split is the clean equivalent.)
func PairCover(in *core.Instance) (*core.BusySchedule, error) {
	if err := requireInterval(in); err != nil {
		return nil, err
	}
	jobs, dummies := padToMultipleOfG(in)
	remaining := make([]core.Job, len(jobs))
	copy(remaining, jobs)
	var bundles [][]core.Job
	for len(remaining) > 0 {
		pair := [2][]core.Job{}
		for round := 0; round < in.G && len(remaining) > 0; round++ {
			trackA, trackB, err := coverTracks(remaining)
			if err != nil {
				return nil, err
			}
			if len(trackA)+len(trackB) == 0 {
				return nil, fmt.Errorf("busytime: pair cover made no progress with %d jobs left", len(remaining))
			}
			pair[0] = append(pair[0], trackA...)
			pair[1] = append(pair[1], trackB...)
			remaining = removeJobs(remaining, trackA)
			remaining = removeJobs(remaining, trackB)
		}
		for _, b := range pair {
			if len(b) > 0 {
				bundles = append(bundles, b)
			}
		}
	}
	// Strip the dummy jobs; removing jobs never increases a bundle's span.
	for bi := range bundles {
		kept := bundles[bi][:0]
		for _, j := range bundles[bi] {
			if !dummies[j.ID] {
				kept = append(kept, j)
			}
		}
		bundles[bi] = kept
	}
	sched := placeAtRelease(bundles)
	sortBundlePlacements(sched)
	return sched, nil
}

// padToMultipleOfG adds dummy interval jobs spanning single interesting
// intervals until every raw demand is a multiple of g. Dummy IDs start
// after the maximum real ID; the returned set marks them.
func padToMultipleOfG(in *core.Instance) ([]core.Job, map[int]bool) {
	jobs := make([]core.Job, len(in.Jobs))
	copy(jobs, in.Jobs)
	nextID := 0
	for _, j := range jobs {
		if j.ID >= nextID {
			nextID = j.ID + 1
		}
	}
	dummies := make(map[int]bool)
	for _, ii := range intervals.InterestingIntervals(in.Jobs) {
		if ii.RawDemand == 0 {
			continue
		}
		missing := (in.G - ii.RawDemand%in.G) % in.G
		for k := 0; k < missing; k++ {
			d := core.Job{
				ID:       nextID,
				Release:  ii.Span.Start,
				Deadline: ii.Span.End,
				Length:   ii.Span.Len(),
			}
			jobs = append(jobs, d)
			dummies[nextID] = true
			nextID++
		}
	}
	return jobs, dummies
}

// coverTracks covers every maximal positive-demand region of the remaining
// jobs with a greedy chain and parity-splits the chains into two tracks.
func coverTracks(remaining []core.Job) (a, b []core.Job, err error) {
	sorted := make([]core.Job, len(remaining))
	copy(sorted, remaining)
	sort.Slice(sorted, func(x, y int) bool {
		if sorted[x].Release != sorted[y].Release {
			return sorted[x].Release < sorted[y].Release
		}
		if sorted[x].Deadline != sorted[y].Deadline {
			return sorted[x].Deadline > sorted[y].Deadline
		}
		return sorted[x].ID < sorted[y].ID
	})
	regions := make([]core.Interval, 0, len(sorted))
	for _, j := range sorted {
		regions = append(regions, j.Window())
	}
	used := make(map[int]bool)
	idx := 0
	for _, region := range core.MergeIntervals(regions) {
		chain, cerr := greedyChain(sorted, used, region)
		if cerr != nil {
			return nil, nil, cerr
		}
		for i, j := range chain {
			used[j.ID] = true
			if i%2 == 0 {
				a = append(a, j)
			} else {
				b = append(b, j)
			}
		}
		_ = idx
	}
	return a, b, nil
}

// greedyChain covers region (a maximal union component of the jobs'
// intervals) with the classical furthest-reaching greedy: consecutive chain
// members overlap, non-consecutive members are disjoint.
func greedyChain(sorted []core.Job, used map[int]bool, region core.Interval) ([]core.Job, error) {
	var chain []core.Job
	cur := region.Start
	for cur < region.End {
		best := -1
		for k, j := range sorted {
			if used[j.ID] || (len(chain) > 0 && chainHas(chain, j.ID)) {
				continue
			}
			if j.Release > cur {
				break // sorted by release: nothing further can cover cur
			}
			if j.Deadline <= cur {
				continue
			}
			if best < 0 || j.Deadline > sorted[best].Deadline {
				best = k
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("busytime: demand region %v not coverable at %d (bug)", region, cur)
		}
		chain = append(chain, sorted[best])
		cur = sorted[best].Deadline
	}
	return chain, nil
}

func chainHas(chain []core.Job, id int) bool {
	for _, j := range chain {
		if j.ID == id {
			return true
		}
	}
	return false
}

// sortBundlePlacements orders placements for stable output.
func sortBundlePlacements(s *core.BusySchedule) {
	for bi := range s.Bundles {
		pls := s.Bundles[bi].Placements
		sort.Slice(pls, func(a, b int) bool {
			if pls[a].Start != pls[b].Start {
				return pls[a].Start < pls[b].Start
			}
			return pls[a].JobID < pls[b].JobID
		})
	}
}
