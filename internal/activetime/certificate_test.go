package activetime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/intervals"
)

// TestTheorem1CertificateRandom turns the proof of Theorem 1 into an
// invariant suite: for random minimal feasible solutions, the Lemma 1
// transformation succeeds, the Lemma 2 witness has all claimed properties,
// and the resulting charging bounds the cost by 3*OPT.
func TestTheorem1CertificateRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	built := 0
	for trial := 0; trial < 80; trial++ {
		in := randInstance(rng, 6, 9, 3)
		sched, err := MinimalFeasible(in, MinimalOptions{Shuffle: true, Seed: int64(trial)})
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cert, err := BuildTheorem1Certificate(in, sched)
		if err != nil {
			t.Fatalf("trial %d: %v (instance %+v)", trial, err, in)
		}
		built++
		// The transformed schedule must still be valid and same cost.
		if err := core.VerifyActive(in, sched); err != nil {
			t.Fatalf("trial %d: sigma' invalid: %v", trial, err)
		}
		// Charging: cost = full + nonfull <= massBound + witnessMass.
		cost := core.Time(len(cert.FullSlots) + len(cert.NonFullSlots))
		if cost != sched.Cost() {
			t.Errorf("trial %d: slot partition %d != cost %d", trial, cost, sched.Cost())
		}
		if cost > cert.MassBound+cert.WitnessMass {
			t.Errorf("trial %d: certificate bound broken: %d > %d+%d",
				trial, cost, cert.MassBound, cert.WitnessMass)
		}
		// The two-track split has disjoint windows per side, so each side's
		// mass lower-bounds OPT.
		j1, j2 := cert.TwoTrackSplit()
		for name, side := range map[string][]core.Job{"J1": j1, "J2": j2} {
			if intervals.MaxLiveOverlap(side) > 1 {
				t.Errorf("trial %d: %s windows overlap", trial, name)
			}
		}
		// End-to-end: the full Theorem 1 inequality against exact OPT.
		exact, err := SolveExact(in, ExactOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sched.Cost() > 3*exact.Cost() {
			t.Errorf("trial %d: minimal %d > 3*OPT %d", trial, sched.Cost(), exact.Cost())
		}
		if m := intervals.Mass(j1); m > exact.Cost() && len(j1) > 0 {
			// Each disjoint side individually lower-bounds OPT.
			t.Errorf("trial %d: J1 mass %d exceeds OPT %d", trial, m, exact.Cost())
		}
	}
	if built < 20 {
		t.Fatalf("only %d certificates built; generator too infeasible", built)
	}
}

// TestTheorem1CertificateFig3 checks the certificate on the paper's own
// tight example, where the witness mass is what forces the factor 3.
func TestTheorem1CertificateFig3(t *testing.T) {
	for _, g := range []int{3, 5} {
		gd, err := gen.Fig3(g)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := Assign(gd.Instance, gd.BadOpen)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := BuildTheorem1Certificate(gd.Instance, sched)
		if err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
		if core.Time(len(cert.NonFullSlots)) > cert.WitnessMass {
			t.Errorf("g=%d: witness mass %d < non-full slots %d",
				g, cert.WitnessMass, len(cert.NonFullSlots))
		}
		// The two long jobs dominate the witness on this gadget.
		if cert.WitnessMass < core.Time(g) {
			t.Errorf("g=%d: witness mass %d suspiciously small", g, cert.WitnessMass)
		}
	}
}

// TestTheorem1CertificateRejectsInvalid checks that the certificate
// construction rejects invalid schedules, and reports a feasible schedule
// with a closable slot as not minimal rather than as an internal bug: an
// open slot that hosts no unit, inside or outside every window, before or
// after the busy one, is named before any move.
func TestTheorem1CertificateRejectsInvalid(t *testing.T) {
	in := &core.Instance{G: 2, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 4, Length: 1},
	}}
	bad := &core.ActiveSchedule{Open: []core.Time{1, 2}, Assign: map[int][]core.Time{0: {1, 2}}}
	if _, err := BuildTheorem1Certificate(in, bad); err == nil {
		t.Error("schedule over-assigning a unit job was accepted")
	}
	for _, c := range []struct {
		open       []core.Time
		busy, idle core.Time
	}{
		{[]core.Time{1, 9}, 1, 9},
		{[]core.Time{-5, 1}, 1, -5},
		{[]core.Time{1, 2}, 1, 2},
		{[]core.Time{1, 2}, 2, 1},
	} {
		sched := &core.ActiveSchedule{Open: c.open, Assign: map[int][]core.Time{0: {c.busy}}}
		if err := core.VerifyActive(in, sched); err != nil {
			t.Fatalf("open %v: the repro must be a feasible schedule: %v", c.open, err)
		}
		_, err := BuildTheorem1Certificate(in, sched)
		switch {
		case err == nil:
			t.Errorf("open %v: a schedule with an idle open slot was certified", c.open)
		case !strings.Contains(err.Error(), "not minimal") || strings.Contains(err.Error(), "(bug)") ||
			!strings.Contains(err.Error(), fmt.Sprintf("slot %d ", c.idle)):
			t.Errorf("open %v: got %q, want a not-minimal error naming slot %d", c.open, err, c.idle)
		}
	}
}

// TestCertificateMatchesMapReference checks the slot-indexed certificate
// against the map-based reference below on every lpFamilies family under
// the four orders of TestTrialCloseMatchesFreshFlow, on the instances of
// TestTheorem1CertificateRandom and on the Figure 3 gadgets. Each input is
// certified twice: on the schedule the closing loop deals out of its
// interval flow, and on Assign's schedule for the same open set.
func TestCertificateMatchesMapReference(t *testing.T) {
	checked := 0
	check := func(name string, in *core.Instance, opts MinimalOptions) {
		t.Helper()
		res, err := MinimalFeasibleStats(in, opts)
		if err == ErrInfeasible {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assigned, err := Assign(in, res.Schedule.Open)
		if err != nil {
			t.Fatalf("%s: Assign on the minimal open set: %v", name, err)
		}
		if _, err := certificateMatchesReference(in, res.Schedule); err != nil {
			t.Fatalf("%s, dealt schedule: %v", name, err)
		}
		if _, err := certificateMatchesReference(in, assigned); err != nil {
			t.Fatalf("%s, Assign's schedule: %v", name, err)
		}
		checked++
	}
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < 8; seed++ {
			in := fam.make(seed)
			open := AllSlots(in)
			mid := open[len(open)/2]
			for _, o := range []struct {
				name string
				opts MinimalOptions
			}{
				{"right to left", MinimalOptions{Strategy: CloseRightToLeft}},
				{"left to right", MinimalOptions{Strategy: CloseLeftToRight}},
				{"shuffled", MinimalOptions{Shuffle: true, Seed: seed}},
				{"first", MinimalOptions{Strategy: CloseRightToLeft, First: []core.Time{mid, open[len(open)-1] + 1, mid, open[0]}}},
			} {
				check(fmt.Sprintf("%s seed %d %s", fam.name, seed, o.name), in, o.opts)
			}
		}
	}
	rng := rand.New(rand.NewSource(1717))
	for trial := 0; trial < 80; trial++ {
		in := randInstance(rng, 6, 9, 3)
		check(fmt.Sprintf("random trial %d", trial), in, MinimalOptions{Shuffle: true, Seed: int64(trial)})
	}
	for _, g := range []int{3, 4, 5, 6} {
		gd, err := gen.Fig3(g)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("fig3 g=%d adversarial", g), gd.Instance, MinimalOptions{First: gd.AdversarialFirst})
		check(fmt.Sprintf("fig3 g=%d right to left", g), gd.Instance, MinimalOptions{Strategy: CloseRightToLeft})
	}
	if checked < 200 {
		t.Fatalf("only %d open sets certified; the families are too infeasible", checked)
	}
}

// TestTheorem1CertificateMoves pins σ' on hand-built minimal feasible
// schedules whose slot lists the certificate must change, which the
// closing loop's own schedules rarely need, and checks each against the
// map-based reference. Every case has g = 3 and needs each open slot, for
// the mass or for a job's units. In "swap", slot 1 hosts two unit jobs
// that could each move to slot 2; IDs run against position order, and the
// lower ID moves. In "shift right" and "shift left", a job of length 2
// moves over its own other unit, so its slot list must be re-sorted. In
// "unsorted", a job lists its slots out of order: it is non-full-rigid, no
// unit moves, and σ' lists its slots in order.
func TestTheorem1CertificateMoves(t *testing.T) {
	for _, c := range []struct {
		name          string
		jobs          []core.Job
		open          []core.Time
		assign        map[int][]core.Time
		changed       map[int][]core.Time // σ' for the jobs whose slot list changes
		witness       []int
		full, nonFull []core.Time
	}{
		{
			name: "swap",
			jobs: []core.Job{
				{ID: 3, Release: 0, Deadline: 2, Length: 1},
				{ID: 2, Release: 0, Deadline: 2, Length: 1},
				{ID: 1, Release: 1, Deadline: 2, Length: 1},
				{ID: 0, Release: 1, Deadline: 2, Length: 1},
			},
			open:    []core.Time{1, 2},
			assign:  map[int][]core.Time{3: {1}, 2: {1}, 1: {2}, 0: {2}},
			changed: map[int][]core.Time{2: {2}},
			witness: []int{3},
			full:    []core.Time{2}, nonFull: []core.Time{1},
		},
		{
			name: "shift right",
			jobs: []core.Job{
				{ID: 0, Release: 0, Deadline: 3, Length: 2},
				{ID: 1, Release: 0, Deadline: 3, Length: 1},
				{ID: 2, Release: 1, Deadline: 2, Length: 1},
				{ID: 3, Release: 1, Deadline: 2, Length: 1},
				{ID: 4, Release: 2, Deadline: 3, Length: 1},
				{ID: 5, Release: 2, Deadline: 3, Length: 1},
			},
			open:    []core.Time{1, 2, 3},
			assign:  map[int][]core.Time{0: {1, 2}, 1: {1}, 2: {2}, 3: {2}, 4: {3}, 5: {3}},
			changed: map[int][]core.Time{0: {2, 3}},
			witness: []int{1},
			full:    []core.Time{2, 3}, nonFull: []core.Time{1},
		},
		{
			name: "shift left",
			jobs: []core.Job{
				{ID: 0, Release: 0, Deadline: 3, Length: 2},
				{ID: 1, Release: 0, Deadline: 3, Length: 1},
				{ID: 2, Release: 1, Deadline: 2, Length: 1},
				{ID: 3, Release: 1, Deadline: 2, Length: 1},
				{ID: 4, Release: 0, Deadline: 1, Length: 1},
				{ID: 5, Release: 0, Deadline: 1, Length: 1},
			},
			open:    []core.Time{1, 2, 3},
			assign:  map[int][]core.Time{0: {2, 3}, 1: {3}, 2: {2}, 3: {2}, 4: {1}, 5: {1}},
			changed: map[int][]core.Time{0: {1, 2}},
			witness: []int{1},
			full:    []core.Time{1, 2}, nonFull: []core.Time{3},
		},
		{
			name: "unsorted",
			jobs: []core.Job{
				{ID: 0, Release: 0, Deadline: 1, Length: 1},
				{ID: 1, Release: 0, Deadline: 2, Length: 2},
			},
			open:    []core.Time{1, 2},
			assign:  map[int][]core.Time{0: {1}, 1: {2, 1}},
			changed: map[int][]core.Time{1: {1, 2}},
			witness: []int{1},
			full:    nil, nonFull: []core.Time{1, 2},
		},
	} {
		in := &core.Instance{G: 3, Jobs: c.jobs}
		sched := &core.ActiveSchedule{Open: c.open, Assign: c.assign}
		if !IsMinimalFeasible(in, c.open) {
			t.Fatalf("%s: open set %v is not minimal feasible", c.name, c.open)
		}
		if _, err := certificateMatchesReference(in, sched); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := cloneSchedule(sched)
		for id, slots := range c.changed {
			want.Assign[id] = slots
		}
		cert, err := BuildTheorem1Certificate(in, sched)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for id, slots := range want.Assign {
			if !slices.Equal(sched.Assign[id], slots) {
				t.Errorf("%s: sigma' puts job %d in %v, want %v", c.name, id, sched.Assign[id], slots)
			}
		}
		var witness []int
		for _, j := range cert.Witness {
			witness = append(witness, j.ID)
		}
		if !slices.Equal(witness, c.witness) || !slices.Equal(cert.FullSlots, c.full) || !slices.Equal(cert.NonFullSlots, c.nonFull) {
			t.Errorf("%s: witness %v, full %v, non-full %v; want %v, %v, %v",
				c.name, witness, cert.FullSlots, cert.NonFullSlots, c.witness, c.full, c.nonFull)
		}
	}
}

// cloneSchedule returns a deep copy of a schedule, so that certifying it
// leaves the original intact.
func cloneSchedule(s *core.ActiveSchedule) *core.ActiveSchedule {
	out := &core.ActiveSchedule{Open: slices.Clone(s.Open), Assign: make(map[int][]core.Time, len(s.Assign))}
	for id, slots := range s.Assign {
		out.Assign[id] = slices.Clone(slots)
	}
	return out
}

// certificateMatchesReference certifies deep copies of sched with
// BuildTheorem1Certificate and with the map-based reference, and returns
// the certificate. It fails if either fails, or if the two differ in their
// error, in σ' or in the certificate.
func certificateMatchesReference(in *core.Instance, sched *core.ActiveSchedule) (*Theorem1Certificate, error) {
	got, want := cloneSchedule(sched), cloneSchedule(sched)
	gotCert, gotErr := BuildTheorem1Certificate(in, got)
	wantCert, wantErr := refTheorem1Certificate(in, want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return nil, fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil, gotErr
	}
	if !slices.Equal(got.Open, want.Open) {
		return nil, fmt.Errorf("sigma' opens %v, reference %v", got.Open, want.Open)
	}
	if len(got.Assign) != len(want.Assign) {
		return nil, fmt.Errorf("sigma' assigns %d jobs, reference %d", len(got.Assign), len(want.Assign))
	}
	// Compare each list as a set: the reference leaves a list it does not
	// move in the order given, BuildTheorem1Certificate sorts every list.
	for id, slots := range want.Assign {
		slots = slices.Clone(slots)
		slices.Sort(slots)
		if !slices.Equal(got.Assign[id], slots) {
			return nil, fmt.Errorf("sigma' puts job %d in %v, reference in %v", id, got.Assign[id], slots)
		}
	}
	switch {
	case !slices.Equal(gotCert.FullSlots, wantCert.FullSlots):
		return nil, fmt.Errorf("full slots %v, reference %v", gotCert.FullSlots, wantCert.FullSlots)
	case !slices.Equal(gotCert.NonFullSlots, wantCert.NonFullSlots):
		return nil, fmt.Errorf("non-full slots %v, reference %v", gotCert.NonFullSlots, wantCert.NonFullSlots)
	case !slices.Equal(gotCert.Witness, wantCert.Witness):
		return nil, fmt.Errorf("witness %v, reference %v", gotCert.Witness, wantCert.Witness)
	case gotCert.MassBound != wantCert.MassBound || gotCert.WitnessMass != wantCert.WitnessMass:
		return nil, fmt.Errorf("mass bound %d and witness mass %d, reference %d and %d",
			gotCert.MassBound, gotCert.WitnessMass, wantCert.MassBound, wantCert.WitnessMass)
	}
	return gotCert, nil
}

// refTheorem1Certificate is BuildTheorem1Certificate on the map-based
// reference index: the implementation the slot-indexed one replaced,
// kept as the oracle it must agree with.
func refTheorem1Certificate(in *core.Instance, sched *core.ActiveSchedule) (*Theorem1Certificate, error) {
	if err := core.VerifyActive(in, sched); err != nil {
		return nil, err
	}
	if err := refLemma1Transform(in, sched); err != nil {
		return nil, err
	}
	full, nonFull := refSplitByLoad(in, sched)
	witness := refLemma2Witness(in, sched, nonFull)
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

// refSchedIndex is the reference's view of a schedule: loads, occupancy,
// open slots and each job's assigned set, all in maps keyed by slot or job
// ID and updated per unit move.
type refSchedIndex struct {
	in       *core.Instance
	sched    *core.ActiveSchedule
	load     map[core.Time]int
	slotJobs map[core.Time][]int // hosted job IDs per slot, ascending
	assigned map[int]map[core.Time]bool
	open     map[core.Time]bool
}

func newRefSchedIndex(in *core.Instance, sched *core.ActiveSchedule) *refSchedIndex {
	idx := &refSchedIndex{
		in:       in,
		sched:    sched,
		load:     sched.Load(),
		slotJobs: make(map[core.Time][]int, len(sched.Open)),
		assigned: make(map[int]map[core.Time]bool, len(sched.Assign)),
		open:     sched.OpenSet(),
	}
	ids := make([]int, 0, len(sched.Assign))
	for id := range sched.Assign {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		set := make(map[core.Time]bool, len(sched.Assign[id]))
		for _, t := range sched.Assign[id] {
			set[t] = true
			idx.slotJobs[t] = append(idx.slotJobs[t], id)
		}
		idx.assigned[id] = set
	}
	return idx
}

func (idx *refSchedIndex) nonFull(t core.Time) bool {
	return idx.open[t] && idx.load[t] < idx.in.G
}

func (idx *refSchedIndex) isNonFullRigid(j core.Job) bool {
	set := idx.assigned[j.ID]
	for t := j.FirstSlot(); t <= j.LastSlot(); t++ {
		if idx.nonFull(t) && !set[t] {
			return false
		}
	}
	return true
}

func (idx *refSchedIndex) move(id int, s, u core.Time) {
	slots := idx.sched.Assign[id]
	for k, v := range slots {
		if v == s {
			slots[k] = u
			break
		}
	}
	core.SortSlots(slots)
	idx.assigned[id][u] = true
	delete(idx.assigned[id], s)
	idx.load[s]--
	idx.load[u]++
	hosted := idx.slotJobs[s]
	for k, v := range hosted {
		if v == id {
			idx.slotJobs[s] = append(hosted[:k], hosted[k+1:]...)
			break
		}
	}
	at := sort.SearchInts(idx.slotJobs[u], id)
	idx.slotJobs[u] = append(idx.slotJobs[u], 0)
	copy(idx.slotJobs[u][at+1:], idx.slotJobs[u][at:])
	idx.slotJobs[u][at] = id
}

func (idx *refSchedIndex) moveUnitOut(s core.Time) (moved int, ok bool) {
	for _, id := range idx.slotJobs[s] {
		j, _ := idx.in.JobByID(id)
		for u := j.FirstSlot(); u <= j.LastSlot(); u++ {
			if u == s || !idx.nonFull(u) || idx.assigned[id][u] {
				continue
			}
			idx.move(id, s, u)
			return id, true
		}
	}
	return 0, false
}

func refLemma1Transform(in *core.Instance, sched *core.ActiveSchedule) error {
	budget := len(in.Jobs)*len(sched.Open)*4 + 64
	idx := newRefSchedIndex(in, sched)
	nonFull := make([]core.Time, 0, len(sched.Open))
	for _, t := range sched.Open {
		if idx.nonFull(t) {
			nonFull = append(nonFull, t)
		}
	}
	anchor := make(map[core.Time]int, len(nonFull))
	for {
		slot, found := core.Time(0), false
	scan:
		for _, t := range nonFull {
			if !idx.nonFull(t) {
				continue
			}
			if _, ok := anchor[t]; ok {
				continue
			}
			for _, id := range idx.slotJobs[t] {
				j, _ := in.JobByID(id)
				if idx.isNonFullRigid(j) {
					anchor[t] = id
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
		moved, ok := idx.moveUnitOut(slot)
		if !ok {
			return fmt.Errorf("activetime: slot %d stuck without a non-full-rigid job (bug)", slot)
		}
		if len(idx.slotJobs[slot]) == 0 {
			return fmt.Errorf("activetime: slot %d emptied; input was not minimal feasible", slot)
		}
		for t, a := range anchor {
			if a == moved {
				delete(anchor, t)
			}
		}
	}
}

func refSplitByLoad(in *core.Instance, sched *core.ActiveSchedule) (full, nonFull []core.Time) {
	load := sched.Load()
	for _, t := range sched.Open {
		if load[t] >= in.G {
			full = append(full, t)
		} else {
			nonFull = append(nonFull, t)
		}
	}
	return full, nonFull
}

func refLemma2Witness(in *core.Instance, sched *core.ActiveSchedule, nonFull []core.Time) []core.Job {
	idx := newRefSchedIndex(in, sched)
	seen := make(map[int]bool)
	var rigid []core.Job
	for _, t := range nonFull {
		for _, id := range idx.slotJobs[t] {
			if seen[id] {
				continue
			}
			j, _ := in.JobByID(id)
			if idx.isNonFullRigid(j) {
				seen[id] = true
				rigid = append(rigid, j)
			}
		}
	}
	return intervals.ProperSubset(rigid)
}
