package core

import (
	"fmt"
	"sort"
)

// VerifyActive checks that the schedule is a feasible solution of the
// slotted active-time instance: every job receives exactly Length units in
// distinct open slots of its window, and no slot holds more than G units.
func VerifyActive(in *Instance, s *ActiveSchedule) error {
	if s == nil {
		return fmt.Errorf("core: nil active schedule")
	}
	open := s.OpenSet()
	if len(open) != len(s.Open) {
		return fmt.Errorf("core: duplicate open slots in schedule")
	}
	load := make(map[Time]int)
	for _, j := range in.Jobs {
		slots, ok := s.Assign[j.ID]
		if !ok {
			return fmt.Errorf("core: %v has no assignment", j)
		}
		if Time(len(slots)) != j.Length {
			return fmt.Errorf("core: %v assigned %d units, want %d", j, len(slots), j.Length)
		}
		seen := make(map[Time]bool, len(slots))
		for _, t := range slots {
			if seen[t] {
				return fmt.Errorf("core: %v scheduled twice in slot %d", j, t)
			}
			seen[t] = true
			if t < j.FirstSlot() || t > j.LastSlot() {
				return fmt.Errorf("core: %v scheduled in slot %d outside window slots [%d,%d]",
					j, t, j.FirstSlot(), j.LastSlot())
			}
			if !open[t] {
				return fmt.Errorf("core: %v scheduled in closed slot %d", j, t)
			}
			load[t]++
		}
	}
	// Every job has its key by now, so with distinct job IDs (as Validate
	// requires) any further key is a job the instance does not have, whose
	// units the loads above leave out.
	if len(s.Assign) != len(in.Jobs) {
		for id := range s.Assign {
			if _, ok := in.JobByID(id); !ok {
				return fmt.Errorf("core: schedule assigns unknown job %d", id)
			}
		}
	}
	for t, n := range load {
		if n > in.G {
			return fmt.Errorf("core: slot %d holds %d units, capacity g=%d", t, n, in.G)
		}
	}
	return nil
}

// VerifyBusy checks that the schedule is a feasible solution of the
// non-preemptive busy-time instance: every job is placed exactly once inside
// its window, and every bundle runs at most G jobs concurrently.
func VerifyBusy(in *Instance, s *BusySchedule) error {
	if s == nil {
		return fmt.Errorf("core: nil busy schedule")
	}
	placed := make(map[int]bool, len(in.Jobs))
	for bi := range s.Bundles {
		b := &s.Bundles[bi]
		ivs := make([]Interval, 0, len(b.Placements))
		for _, pl := range b.Placements {
			j, ok := in.JobByID(pl.JobID)
			if !ok {
				return fmt.Errorf("core: bundle %d references unknown job %d", bi, pl.JobID)
			}
			if placed[pl.JobID] {
				return fmt.Errorf("core: job %d placed more than once", pl.JobID)
			}
			placed[pl.JobID] = true
			if pl.Start < j.Release || pl.Start+j.Length > j.Deadline {
				return fmt.Errorf("core: %v placed at %d, outside window", j, pl.Start)
			}
			ivs = append(ivs, Interval{pl.Start, pl.Start + j.Length})
		}
		if max := MaxConcurrency(ivs); max > in.G {
			return fmt.Errorf("core: bundle %d runs %d jobs concurrently, capacity g=%d",
				bi, max, in.G)
		}
	}
	for _, j := range in.Jobs {
		if !placed[j.ID] {
			return fmt.Errorf("core: %v not placed", j)
		}
	}
	return nil
}

// VerifyPreemptive checks a preemptive busy-time schedule: every job
// accumulates exactly Length units inside its window, no job runs on two
// machines at once, and every machine runs at most G jobs concurrently.
func VerifyPreemptive(in *Instance, s *PreemptiveSchedule) error {
	if s == nil {
		return fmt.Errorf("core: nil preemptive schedule")
	}
	for mi := range s.Machines {
		m := &s.Machines[mi]
		ivs := make([]Interval, 0, len(m.Pieces))
		for _, p := range m.Pieces {
			if p.Span.Empty() {
				return fmt.Errorf("core: machine %d has empty piece for job %d", mi, p.JobID)
			}
			ivs = append(ivs, p.Span)
		}
		if max := MaxConcurrency(ivs); max > in.G {
			return fmt.Errorf("core: machine %d runs %d jobs concurrently, capacity g=%d",
				mi, max, in.G)
		}
	}
	byJob := s.JobPieces()
	for _, j := range in.Jobs {
		ivs := byJob[j.ID]
		var total Time
		for i, iv := range ivs {
			if iv.Start < j.Release || iv.End > j.Deadline {
				return fmt.Errorf("core: %v piece %v outside window", j, iv)
			}
			if i > 0 && ivs[i-1].End > iv.Start {
				return fmt.Errorf("core: %v runs on two machines at once around %d", j, iv.Start)
			}
			total += iv.Len()
		}
		if total != j.Length {
			return fmt.Errorf("core: %v accumulates %d units, want %d", j, total, j.Length)
		}
	}
	for id := range byJob {
		if _, ok := in.JobByID(id); !ok {
			return fmt.Errorf("core: schedule references unknown job %d", id)
		}
	}
	return nil
}

// MaxConcurrency returns the maximum number of the given intervals that
// share a common point.
func MaxConcurrency(ivs []Interval) int {
	type event struct {
		t     Time
		delta int
	}
	evs := make([]event, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.Empty() {
			continue
		}
		evs = append(evs, event{iv.Start, +1}, event{iv.End, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta // process ends before starts at ties
	})
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}
