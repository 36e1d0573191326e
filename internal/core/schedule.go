package core

import (
	"fmt"
	"sort"
	"strings"
)

// ActiveSchedule is a solution to the slotted active-time problem: a set of
// open (active) slots and an assignment of every job to slots of its window.
// Slot t denotes the time interval [t-1, t).
type ActiveSchedule struct {
	// Open lists the active slots in increasing order.
	Open []Time
	// Assign maps each job ID to the (sorted) slots in which one unit of the
	// job is scheduled; len(Assign[id]) must equal the job's length.
	Assign map[int][]Time
}

// Cost returns the active time, the number of open slots.
func (s *ActiveSchedule) Cost() Time { return Time(len(s.Open)) }

// OpenSet returns the open slots as a set.
func (s *ActiveSchedule) OpenSet() map[Time]bool {
	set := make(map[Time]bool, len(s.Open))
	for _, t := range s.Open {
		set[t] = true
	}
	return set
}

// Load returns, for every open slot, the number of job units assigned to it.
func (s *ActiveSchedule) Load() map[Time]int {
	load := make(map[Time]int, len(s.Open))
	for _, slots := range s.Assign {
		for _, t := range slots {
			load[t]++
		}
	}
	return load
}

func (s *ActiveSchedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "active slots (%d):", len(s.Open))
	for _, t := range s.Open {
		fmt.Fprintf(&b, " %d", t)
	}
	return b.String()
}

// Placement fixes a non-preemptive start time for a job.
type Placement struct {
	JobID int  `json:"job"`
	Start Time `json:"start"`
}

// Bundle is the set of jobs assigned to one (virtual) machine in the
// busy-time model, with their start times.
type Bundle struct {
	Placements []Placement `json:"placements"`
}

// BusySchedule is a solution to the busy-time problem: a partition of the
// jobs into bundles, one machine per bundle.
type BusySchedule struct {
	Bundles []Bundle `json:"bundles"`
}

// Intervals returns the execution intervals of the bundle's placements,
// resolving lengths against the instance.
func (b *Bundle) Intervals(in *Instance) ([]Interval, error) {
	out := make([]Interval, 0, len(b.Placements))
	for _, pl := range b.Placements {
		j, ok := in.JobByID(pl.JobID)
		if !ok {
			return nil, fmt.Errorf("core: bundle references unknown job %d", pl.JobID)
		}
		out = append(out, Interval{pl.Start, pl.Start + j.Length})
	}
	return out, nil
}

// BusyTime returns the busy time of the bundle: the measure of the union of
// its jobs' execution intervals.
func (b *Bundle) BusyTime(in *Instance) (Time, error) {
	ivs, err := b.Intervals(in)
	if err != nil {
		return 0, err
	}
	return UnionMeasure(ivs), nil
}

// Cost returns the total busy time over all bundles.
func (s *BusySchedule) Cost(in *Instance) (Time, error) {
	var total Time
	for i := range s.Bundles {
		bt, err := s.Bundles[i].BusyTime(in)
		if err != nil {
			return 0, err
		}
		total += bt
	}
	return total, nil
}

// Piece is a maximal contiguous stretch of processing of one job on one
// machine in the preemptive busy-time model.
type Piece struct {
	JobID int      `json:"job"`
	Span  Interval `json:"span"`
}

// PreemptiveMachine is one machine's worth of preemptive pieces.
type PreemptiveMachine struct {
	Pieces []Piece `json:"pieces"`
}

// BusyTime returns the machine's busy time (union measure of its pieces).
func (m *PreemptiveMachine) BusyTime() Time {
	ivs := make([]Interval, 0, len(m.Pieces))
	for _, p := range m.Pieces {
		ivs = append(ivs, p.Span)
	}
	return UnionMeasure(ivs)
}

// PreemptiveSchedule is a solution to the preemptive busy-time problem.
type PreemptiveSchedule struct {
	Machines []PreemptiveMachine `json:"machines"`
}

// Cost returns the total busy time over all machines.
func (s *PreemptiveSchedule) Cost() Time {
	var total Time
	for i := range s.Machines {
		total += s.Machines[i].BusyTime()
	}
	return total
}

// JobPieces gathers the pieces of every job across machines.
func (s *PreemptiveSchedule) JobPieces() map[int][]Interval {
	out := make(map[int][]Interval)
	for i := range s.Machines {
		for _, p := range s.Machines[i].Pieces {
			out[p.JobID] = append(out[p.JobID], p.Span)
		}
	}
	for _, ivs := range out {
		SortIntervals(ivs)
	}
	return out
}

// SortSlots sorts a slice of slot indices in increasing order.
func SortSlots(ts []Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}
