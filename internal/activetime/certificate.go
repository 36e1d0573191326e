package activetime

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/intervals"
)

// Theorem1Certificate is an executable version of the proof of Theorem 1:
// given a minimal feasible solution it materializes the σ' transformation
// of Lemma 1 (every non-full slot hosts a non-full-rigid job) and the
// witness set J* of Lemma 2, yielding the charging
//
//	cost = |A_full| + |A_nonfull| <= ceil(mass/g) + Σ_{j∈J*} p_j <= 3·OPT,
//
// where J* splits into two sets of pairwise-disjoint windows, each of mass
// at most OPT. Tests check every structural property on random minimal
// solutions, turning the paper's proof into an invariant suite.
type Theorem1Certificate struct {
	// FullSlots and NonFullSlots partition the active slots of σ'.
	FullSlots, NonFullSlots []core.Time
	// Witness is the minimal set J* of non-full-rigid jobs: it covers every
	// non-full slot, no window contains another, and at most two windows
	// overlap anywhere.
	Witness []core.Job
	// MassBound = ceil(mass/g) bounds |FullSlots|; WitnessMass = Σ p_j over
	// J* bounds |NonFullSlots|.
	MassBound   core.Time
	WitnessMass core.Time
}

// BuildTheorem1Certificate transforms a minimal feasible schedule per
// Lemma 1 (moving units out of non-full slots until each hosts a
// non-full-rigid job) and extracts the Lemma 2 witness set. An open slot
// that hosts no unit, or that empties during the moves, shows that the
// schedule was not minimal, and is returned as an error. The schedule is
// modified in place to σ'.
func BuildTheorem1Certificate(in *core.Instance, sched *core.ActiveSchedule) (*Theorem1Certificate, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := core.VerifyActive(in, sched); err != nil {
		return nil, err
	}
	idx, err := newSchedIndex(in, sched)
	if err != nil {
		return nil, err
	}
	if err := idx.lemma1Transform(); err != nil {
		return nil, err
	}
	full, nonFull := idx.splitByLoad()
	witness := idx.lemma2Witness(nonFull)
	cert := &Theorem1Certificate{
		FullSlots:    full,
		NonFullSlots: nonFull,
		Witness:      witness,
		MassBound:    (in.TotalLength() + core.Time(in.G) - 1) / core.Time(in.G),
	}
	for _, j := range witness {
		cert.WitnessMass += j.Length
	}
	return cert, cert.check(in, sched)
}

// check validates every property the proof relies on.
func (c *Theorem1Certificate) check(in *core.Instance, sched *core.ActiveSchedule) error {
	if got := core.Time(len(c.FullSlots)); got > c.MassBound {
		return fmt.Errorf("activetime: %d full slots exceed mass bound %d", got, c.MassBound)
	}
	if got := core.Time(len(c.NonFullSlots)); got > c.WitnessMass {
		return fmt.Errorf("activetime: %d non-full slots exceed witness mass %d", got, c.WitnessMass)
	}
	if overlap := intervals.MaxLiveOverlap(c.Witness); overlap > 2 {
		return fmt.Errorf("activetime: %d witness windows overlap (Lemma 2 allows 2)", overlap)
	}
	// Every non-full slot is covered by a witness job scheduled in it.
	bySlot := make(map[core.Time]bool)
	for _, j := range c.Witness {
		for _, t := range sched.Assign[j.ID] {
			bySlot[t] = true
		}
	}
	for _, t := range c.NonFullSlots {
		if !bySlot[t] {
			return fmt.Errorf("activetime: non-full slot %d not covered by witness", t)
		}
	}
	return nil
}

// TwoTrackSplit partitions the witness into the two disjoint-window job
// sets J1, J2 of the Theorem 1 charging (possible because at most two
// witness windows overlap anywhere and no window contains another).
func (c *Theorem1Certificate) TwoTrackSplit() (j1, j2 []core.Job) {
	for i, j := range c.Witness {
		if i%2 == 0 {
			j1 = append(j1, j)
		} else {
			j2 = append(j2, j)
		}
	}
	return j1, j2
}

// schedIndex is the mutable view of an active schedule that the Lemma 1
// movement process edits and the Lemma 2 extraction reads. Everything is
// indexed by slot or by job position in in.Jobs, never through a map: per
// slot its load, whether it is open, and the jobs it hosts; per job its
// slot list, which is the schedule's own Assign list, kept ascending and
// edited in place. Rigidity is one lockstep walk of a job's window against
// its slot list, and a unit move costs O(g) plus the shift of one slot
// list. The slices span slots 0..Horizon: VerifyActive puts every unit in
// an open slot of its job's window, and newSchedIndex rejects an open slot
// that hosts no unit, so every slot the index touches lies in [1, Horizon].
type schedIndex struct {
	g      int
	jobs   []core.Job
	open   []core.Time   // the schedule's open slots, in its order
	slots  [][]core.Time // per job: its slots, ascending; the schedule's Assign list
	load   []int         // index t: units in slot t
	isOpen []bool        // index t: slot t is open
	hosted [][]int32     // index t: the jobs slot t hosts, by ascending ID
}

// newSchedIndex indexes a schedule that VerifyActive accepted for a valid
// instance. It sorts any unsorted Assign list in place, and it rejects an
// open slot that hosts no unit: that slot could close, so the schedule is
// not minimal.
func newSchedIndex(in *core.Instance, sched *core.ActiveSchedule) (*schedIndex, error) {
	h := in.Horizon()
	idx := &schedIndex{
		g:      in.G,
		jobs:   in.Jobs,
		open:   sched.Open,
		slots:  make([][]core.Time, len(in.Jobs)),
		load:   make([]int, h+1),
		isOpen: make([]bool, h+1),
	}
	for i, j := range in.Jobs {
		own := sched.Assign[j.ID]
		if !slices.IsSorted(own) {
			slices.Sort(own)
		}
		idx.slots[i] = own
		for _, t := range own {
			idx.load[t]++
		}
	}
	for _, t := range sched.Open {
		if t < 1 || t > h || idx.load[t] == 0 {
			return nil, fmt.Errorf("activetime: open slot %d hosts no unit; input was not minimal feasible", t)
		}
		idx.isOpen[t] = true
	}
	idx.hosted = carve[int32](len(idx.load), func(t int) int { return idx.load[t] })
	for i, own := range idx.slots {
		for _, t := range own {
			idx.host(t, int32(i))
		}
	}
	return idx, nil
}

// nonFull reports whether t is an open slot with spare capacity.
func (idx *schedIndex) nonFull(t core.Time) bool {
	return idx.isOpen[t] && idx.load[t] < idx.g
}

// isNonFullRigid reports whether job p occupies every non-full open slot of
// its window (Definition 5).
func (idx *schedIndex) isNonFullRigid(p int32) bool {
	j, own := idx.jobs[p], idx.slots[p]
	k := 0
	for t := j.FirstSlot(); t <= j.LastSlot(); t++ {
		if k < len(own) && own[k] == t {
			k++
		} else if idx.nonFull(t) {
			return false
		}
	}
	return true
}

// host adds job p to slot t's hosted jobs, keeping them in ascending ID
// order. A slot hosts at most g jobs, so the insertion is O(g).
func (idx *schedIndex) host(t core.Time, p int32) {
	list := append(idx.hosted[t], p)
	k := len(list) - 1
	for ; k > 0 && idx.jobs[list[k-1]].ID > idx.jobs[p].ID; k-- {
		list[k] = list[k-1]
	}
	list[k] = p
	idx.hosted[t] = list
}

// move relocates one unit of job p from slot s to slot u, updating the
// schedule and every index.
func (idx *schedIndex) move(p int32, s, u core.Time) {
	own := idx.slots[p]
	k := slices.Index(own, s)
	for ; k+1 < len(own) && own[k+1] < u; k++ {
		own[k] = own[k+1]
	}
	for ; k > 0 && own[k-1] > u; k-- {
		own[k] = own[k-1]
	}
	own[k] = u
	idx.load[s]--
	idx.load[u]++
	at := slices.Index(idx.hosted[s], p)
	idx.hosted[s] = slices.Delete(idx.hosted[s], at, at+1)
	idx.host(u, p)
}

// moveUnitOut moves one unit out of slot s to the first other open,
// non-full slot of the job's window where the job is not already
// scheduled, trying the hosted jobs in ascending ID order. It reports
// false if no job in s can move.
func (idx *schedIndex) moveUnitOut(s core.Time) bool {
	for _, p := range idx.hosted[s] {
		j, own := idx.jobs[p], idx.slots[p]
		k := 0
		for u := j.FirstSlot(); u <= j.LastSlot(); u++ {
			if k < len(own) && own[k] == u {
				k++ // s itself is one of these
			} else if idx.nonFull(u) {
				idx.move(p, s, u)
				return true
			}
		}
	}
	return false
}

// lemma1Transform implements the movement process of Lemma 1: while some
// non-full slot hosts no non-full-rigid job, move a unit out of it to
// another live, active, non-full slot. Minimality guarantees the slot never
// empties; a budget guards against implementation bugs.
//
// The scan memoizes anchors: once a non-full slot is seen to host a
// non-full-rigid job, it stays anchored for the rest of the transform.
// Moves never add slots to the non-full set (only the move target can
// change fullness, by filling up), so a job that does not move stays
// non-full-rigid once it is. And a non-full-rigid job never moves: units
// only leave a slot that hosts no non-full-rigid job. Each round therefore
// skips the anchored slots in O(1) and examines only the rest.
func (idx *schedIndex) lemma1Transform() error {
	budget := len(idx.jobs)*len(idx.open)*4 + 64
	var nonFull []core.Time
	for _, t := range idx.open {
		if idx.nonFull(t) {
			nonFull = append(nonFull, t)
		}
	}
	anchored := make([]bool, len(nonFull)) // per non-full slot
	for {
		slot, found := core.Time(0), false
	scan:
		for i, t := range nonFull {
			if anchored[i] || !idx.nonFull(t) { // anchored, or filled up by a move
				continue
			}
			for _, p := range idx.hosted[t] {
				if idx.isNonFullRigid(p) {
					anchored[i] = true
					continue scan
				}
			}
			slot, found = t, true
			break
		}
		if !found {
			return nil
		}
		if budget == 0 {
			return fmt.Errorf("activetime: Lemma 1 transform did not converge")
		}
		budget--
		if !idx.moveUnitOut(slot) {
			// No job in the slot can move, yet none is non-full-rigid:
			// impossible for a feasible schedule whose every open slot hosts
			// a unit (every stuck job is by definition non-full-rigid).
			return fmt.Errorf("activetime: slot %d stuck without a non-full-rigid job (bug)", slot)
		}
		if len(idx.hosted[slot]) == 0 {
			return fmt.Errorf("activetime: slot %d emptied; input was not minimal feasible", slot)
		}
	}
}

// splitByLoad partitions the open slots into full (load == g) and non-full.
func (idx *schedIndex) splitByLoad() (full, nonFull []core.Time) {
	for _, t := range idx.open {
		if idx.load[t] >= idx.g {
			full = append(full, t)
		} else {
			nonFull = append(nonFull, t)
		}
	}
	return full, nonFull
}

// lemma2Witness extracts J*: one non-full-rigid job per non-full slot,
// pruned so that no window contains another and at most two windows overlap
// anywhere (via the same frontier selection as the Theorem 5 proof, which
// preserves coverage of the union of windows).
func (idx *schedIndex) lemma2Witness(nonFull []core.Time) []core.Job {
	seen := make([]bool, len(idx.jobs))
	var rigid []core.Job
	for _, t := range nonFull {
		for _, p := range idx.hosted[t] {
			if !seen[p] {
				seen[p] = true
				if idx.isNonFullRigid(p) {
					rigid = append(rigid, idx.jobs[p])
				}
			}
		}
	}
	return intervals.ProperSubset(rigid)
}
