package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Job is a unit of work with a feasible window [Release, Deadline) and a
// processing requirement of Length time units.
//
// In the active-time model the job must receive Length units spread over
// distinct slots of its window {Release+1, ..., Deadline}. In the busy-time
// model the job must run non-preemptively for Length contiguous time inside
// its window; in the preemptive busy-time model it must accumulate Length
// units of processing inside its window on at most one machine at a time.
type Job struct {
	ID       int  `json:"id"`
	Release  Time `json:"release"`
	Deadline Time `json:"deadline"`
	Length   Time `json:"length"`
}

// Window returns the job's feasible window [Release, Deadline).
func (j Job) Window() Interval { return Interval{j.Release, j.Deadline} }

// WindowLen returns Deadline - Release.
func (j Job) WindowLen() Time { return j.Deadline - j.Release }

// LatestStart returns the latest feasible non-preemptive start time.
func (j Job) LatestStart() Time { return j.Deadline - j.Length }

// IsInterval reports whether the job is rigid (an "interval job" in the
// paper's terminology): its length equals its window, so its placement is
// forced.
func (j Job) IsInterval() bool { return j.Length == j.WindowLen() }

// FirstSlot and LastSlot delimit the slots usable by the job in the slotted
// active-time model: slots {Release+1, ..., Deadline}.
func (j Job) FirstSlot() Time { return j.Release + 1 }

// LastSlot returns the last usable slot index in the active-time model.
func (j Job) LastSlot() Time { return j.Deadline }

func (j Job) String() string {
	return fmt.Sprintf("J%d(r=%d,d=%d,p=%d)", j.ID, j.Release, j.Deadline, j.Length)
}

// Instance is a scheduling instance: a set of jobs and the parallelism bound
// G (at most G jobs may be simultaneously active on a machine / in a slot).
type Instance struct {
	Name string `json:"name,omitempty"`
	G    int    `json:"g"`
	Jobs []Job  `json:"jobs"`
}

// Validate checks structural sanity: G >= 1, job lengths >= 1, windows long
// enough to hold the job, non-negative releases, and unique job IDs. It does
// not check capacity feasibility (that is a solver question).
func (in *Instance) Validate() error {
	if in.G < 1 {
		return fmt.Errorf("core: instance %q: g = %d, want >= 1", in.Name, in.G)
	}
	if len(in.Jobs) == 0 {
		return errors.New("core: instance has no jobs")
	}
	seen := make(map[int]bool, len(in.Jobs))
	for _, j := range in.Jobs {
		if seen[j.ID] {
			return fmt.Errorf("core: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if j.Length < 1 {
			return fmt.Errorf("core: %v: length %d, want >= 1", j, j.Length)
		}
		if j.Release < 0 {
			return fmt.Errorf("core: %v: negative release time", j)
		}
		if j.WindowLen() < j.Length {
			return fmt.Errorf("core: %v: window [%d,%d) shorter than length %d",
				j, j.Release, j.Deadline, j.Length)
		}
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Name: in.Name, G: in.G, Jobs: make([]Job, len(in.Jobs))}
	copy(out.Jobs, in.Jobs)
	return out
}

// TotalLength returns the mass of the instance, the sum of job lengths
// (written P or ℓ(J) in the paper).
func (in *Instance) TotalLength() Time {
	var p Time
	for _, j := range in.Jobs {
		p += j.Length
	}
	return p
}

// Horizon returns the latest deadline T (0 for an empty instance).
func (in *Instance) Horizon() Time {
	var t Time
	for _, j := range in.Jobs {
		if j.Deadline > t {
			t = j.Deadline
		}
	}
	return t
}

// MinRelease returns the earliest release time (0 for an empty instance).
func (in *Instance) MinRelease() Time {
	if len(in.Jobs) == 0 {
		return 0
	}
	r := in.Jobs[0].Release
	for _, j := range in.Jobs[1:] {
		if j.Release < r {
			r = j.Release
		}
	}
	return r
}

// JobByID returns the job with the given ID, or ok=false.
func (in *Instance) JobByID(id int) (Job, bool) {
	for _, j := range in.Jobs {
		if j.ID == id {
			return j, true
		}
	}
	return Job{}, false
}

// AllInterval reports whether every job is an interval (rigid) job.
func (in *Instance) AllInterval() bool {
	for _, j := range in.Jobs {
		if !j.IsInterval() {
			return false
		}
	}
	return true
}

// AllUnit reports whether every job has unit length.
func (in *Instance) AllUnit() bool {
	for _, j := range in.Jobs {
		if j.Length != 1 {
			return false
		}
	}
	return true
}

// Deadlines returns the sorted distinct deadlines of the instance.
func (in *Instance) Deadlines() []Time {
	set := make(map[Time]bool, len(in.Jobs))
	for _, j := range in.Jobs {
		set[j.Deadline] = true
	}
	out := make([]Time, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// WriteJSON writes the instance as indented JSON.
func (in *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}

// ReadInstance decodes an instance from JSON and validates it.
func ReadInstance(r io.Reader) (*Instance, error) {
	var in Instance
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding instance: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}

// LoadInstance reads an instance from a JSON file.
func LoadInstance(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadInstance(f)
}

// Shift translates every job window by delta ticks (delta may be negative
// as long as no release becomes negative) and returns the instance for
// chaining. Every algorithm in this repository is shift-invariant; the
// test suite uses Shift to check that no hidden absolute-time assumption
// creeps in.
func (in *Instance) Shift(delta Time) *Instance {
	for i := range in.Jobs {
		in.Jobs[i].Release += delta
		in.Jobs[i].Deadline += delta
	}
	return in
}
