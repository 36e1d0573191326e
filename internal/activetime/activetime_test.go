package activetime

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// randInstance produces a random feasible-looking active-time instance with
// horizon at most maxT.
func randInstance(rng *rand.Rand, maxN, maxT, maxG int) *core.Instance {
	n := 1 + rng.Intn(maxN)
	g := 1 + rng.Intn(maxG)
	jobs := make([]core.Job, n)
	for i := range jobs {
		r := core.Time(rng.Intn(maxT - 1))
		maxLen := core.Time(maxT) - r
		w := 1 + core.Time(rng.Intn(int(maxLen)))
		p := 1 + core.Time(rng.Intn(int(w)))
		jobs[i] = core.Job{ID: i, Release: r, Deadline: r + w, Length: p}
	}
	return &core.Instance{G: g, Jobs: jobs}
}

// bruteOPT enumerates all subsets of useful slots and returns the minimum
// feasible open count, or -1 if infeasible.
func bruteOPT(in *core.Instance) int {
	slots := AllSlots(in)
	if len(slots) > 18 {
		panic("bruteOPT: too many slots")
	}
	best := -1
	for mask := 0; mask < 1<<len(slots); mask++ {
		pc := bits.OnesCount(uint(mask))
		if best >= 0 && pc >= best {
			continue
		}
		open := make([]core.Time, 0, pc)
		for i, t := range slots {
			if mask&(1<<i) != 0 {
				open = append(open, t)
			}
		}
		if CheckFeasible(in, open) {
			best = pc
		}
	}
	return best
}

func TestCheckFeasibleBasic(t *testing.T) {
	in := &core.Instance{G: 1, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 2, Length: 2},
		{ID: 1, Release: 0, Deadline: 2, Length: 1},
	}}
	if CheckFeasible(in, []core.Time{1, 2}) {
		t.Error("g=1 cannot fit 3 units in 2 slots")
	}
	in.G = 2
	if !CheckFeasible(in, []core.Time{1, 2}) {
		t.Error("g=2 fits 3 units in 2 slots")
	}
	if CheckFeasible(in, []core.Time{1}) {
		t.Error("job 0 needs two distinct slots")
	}
}

func TestAssignProducesValidSchedule(t *testing.T) {
	in := &core.Instance{G: 2, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 4, Length: 3},
		{ID: 1, Release: 1, Deadline: 3, Length: 2},
		{ID: 2, Release: 0, Deadline: 2, Length: 1},
	}}
	sched, err := Assign(in, []core.Time{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyActive(in, sched); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

func TestMinimalFeasibleSmall(t *testing.T) {
	in := &core.Instance{G: 2, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 4, Length: 2},
		{ID: 1, Release: 0, Deadline: 4, Length: 2},
	}}
	sched, err := MinimalFeasible(in, MinimalOptions{Strategy: CloseRightToLeft})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyActive(in, sched); err != nil {
		t.Fatal(err)
	}
	if got := sched.Cost(); got != 2 {
		t.Errorf("minimal cost = %d, want 2 (two jobs of length 2, g=2)", got)
	}
	if !IsMinimalFeasible(in, sched.Open) {
		t.Error("result not minimal")
	}
}

func TestMinimalFeasibleInfeasible(t *testing.T) {
	in := &core.Instance{G: 1, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 2, Length: 2},
		{ID: 1, Release: 0, Deadline: 2, Length: 2},
	}}
	if _, err := MinimalFeasible(in, MinimalOptions{}); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestMinimalFeasibleWithin3OPT(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		in := randInstance(rng, 5, 8, 3)
		opt := bruteOPT(in)
		if opt < 0 {
			continue
		}
		for _, o := range []MinimalOptions{
			{Strategy: CloseLeftToRight},
			{Strategy: CloseRightToLeft},
			{Shuffle: true, Seed: int64(trial)},
		} {
			sched, err := MinimalFeasible(in, o)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := core.VerifyActive(in, sched); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if int(sched.Cost()) > 3*opt {
				t.Errorf("trial %d: minimal=%d > 3*OPT=%d (%+v)", trial, sched.Cost(), 3*opt, in)
			}
			if !IsMinimalFeasible(in, sched.Open) {
				t.Errorf("trial %d: non-minimal output", trial)
			}
		}
	}
}

func TestSolveExactMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 5, 7, 3)
		opt := bruteOPT(in)
		if opt < 0 {
			continue
		}
		sched, err := SolveExact(in, ExactOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := core.VerifyActive(in, sched); err != nil {
			t.Fatalf("trial %d: invalid exact schedule: %v", trial, err)
		}
		if int(sched.Cost()) != opt {
			t.Errorf("trial %d: exact=%d brute=%d for %+v", trial, sched.Cost(), opt, in)
		}
	}
}

func TestSolveUnitExactMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(8)
		g := 1 + rng.Intn(3)
		jobs := make([]core.Job, n)
		for i := range jobs {
			r := core.Time(rng.Intn(7))
			w := 1 + core.Time(rng.Intn(4))
			jobs[i] = core.Job{ID: i, Release: r, Deadline: r + w, Length: 1}
		}
		in := &core.Instance{G: g, Jobs: jobs}
		opt := bruteOPT(in)
		sched, err := SolveUnitExact(in)
		if opt < 0 {
			if err != ErrInfeasible {
				t.Errorf("trial %d: want ErrInfeasible, got %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v (instance %+v)", trial, err, in)
		}
		if err := core.VerifyActive(in, sched); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		if int(sched.Cost()) != opt {
			t.Errorf("trial %d: unit exact=%d brute=%d for %+v", trial, sched.Cost(), opt, in)
		}
	}
}

func TestSolveUnitExactRejectsNonUnit(t *testing.T) {
	in := &core.Instance{G: 1, Jobs: []core.Job{{ID: 0, Release: 0, Deadline: 3, Length: 2}}}
	if _, err := SolveUnitExact(in); err == nil {
		t.Error("non-unit instance accepted")
	}
}

func TestSolveLPLowerBoundsOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 30; trial++ {
		in := randInstance(rng, 5, 7, 3)
		opt := bruteOPT(in)
		if opt < 0 {
			continue
		}
		lpres, err := SolveLP(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lpres.Objective > float64(opt)+1e-6 {
			t.Errorf("trial %d: LP=%v > OPT=%d for %+v", trial, lpres.Objective, opt, in)
		}
		// The LP must also be at least the mass bound.
		mass := float64(in.TotalLength()) / float64(in.G)
		if lpres.Objective < mass-1e-6 {
			t.Errorf("trial %d: LP=%v < mass bound %v", trial, lpres.Objective, mass)
		}
	}
}

func TestRightShiftStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		in := randInstance(rng, 5, 8, 3)
		if !CheckFeasible(in, AllSlots(in)) {
			continue
		}
		lpres, err := SolveLP(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shifted, err := RightShiftedY(in, lpres)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Lemma 3: the right-shifted solution is still LP-feasible.
		if _, violated := newSeparator(in).separate(shifted[1:]); violated {
			t.Errorf("trial %d: right-shifted solution violates a cut (instance %+v, y=%v)",
				trial, in, shifted)
		}
		// Mass is preserved.
		var a, b float64
		for _, v := range lpres.Y {
			a += v
		}
		for _, v := range shifted {
			b += v
		}
		if diff := a - b; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("trial %d: right shift changed mass %v -> %v", trial, a, b)
		}
	}
}

func TestRoundLPWithinTwiceLP(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 50; trial++ {
		in := randInstance(rng, 6, 9, 3)
		if !CheckFeasible(in, AllSlots(in)) {
			continue
		}
		res, err := RoundLP(in)
		if err != nil {
			t.Fatalf("trial %d: %v (instance %+v)", trial, err, in)
		}
		if err := core.VerifyActive(in, res.Schedule); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		if float64(res.Opened) > 2*res.LPValue+1e-6 {
			t.Errorf("trial %d: opened %d > 2*LP %v (instance %+v)",
				trial, res.Opened, res.LPValue, in)
		}
		if res.Repairs != 0 {
			t.Errorf("trial %d: %d repairs needed (instance %+v)", trial, res.Repairs, in)
		}
		if res.InvariantViolated {
			t.Errorf("trial %d: 2*LP running invariant violated (instance %+v)", trial, in)
		}
	}
}

func TestRoundLPInfeasible(t *testing.T) {
	in := &core.Instance{G: 1, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 2, Length: 2},
		{ID: 1, Release: 0, Deadline: 2, Length: 2},
	}}
	if _, err := RoundLP(in); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}
