package activetime

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// atomSplits counts the atoms an arrival split, given the session's
// atomCol before and after it: the slots inside an atom before that start
// an atom after. Each is one lp.Problem.SplitColumn.
func atomSplits(before, after []int32) int {
	n := 0
	for t := 1; t < len(before); t++ {
		if before[t] >= 0 && before[t] == before[t-1] && after[t] != after[t-1] {
			n++
		}
	}
	return n
}

// checkAtoms holds a session's atoms to their invariants: every master
// column is exactly one run of slots in atomCol, its bound is the run's
// length and its cost is 1, and every window of the current instance
// contains or misses each atom.
func checkAtoms(t *testing.T, sess *Session, where string) {
	t.Helper()
	type run struct{ lo, hi int }
	runs := make(map[int32]run)
	for slot, col := range sess.atomCol {
		if col < 0 {
			continue
		}
		r, seen := runs[col]
		switch {
		case !seen:
			runs[col] = run{slot, slot}
		case r.hi == slot-1:
			runs[col] = run{r.lo, slot}
		default:
			t.Fatalf("%s: column %d holds slots %d..%d and %d", where, col, r.lo, r.hi, slot)
		}
	}
	if len(runs) != sess.prob.NumVars() {
		t.Fatalf("%s: %d atoms for %d master columns", where, len(runs), sess.prob.NumVars())
	}
	for col, r := range runs {
		if u := sess.prob.Upper(int(col)); u != float64(r.hi-r.lo+1) {
			t.Fatalf("%s: column %d has bound %v for slots %d..%d", where, col, u, r.lo, r.hi)
		}
		for _, j := range sess.in.Jobs {
			lo, hi := int(j.FirstSlot()), int(j.LastSlot())
			if in, out := lo <= r.lo && r.hi <= hi, hi < r.lo || r.hi < lo; !in && !out {
				t.Fatalf("%s: job %v's window cuts atom %d..%d", where, j, r.lo, r.hi)
			}
		}
	}
}

// checkSlotY holds an LPResult.Y to what it claims: it is an LP1 solution
// over the slots, since the per-slot network (perSlotSeparation) meets the
// demand within 1e-6; it sums to the objective within 1e-9; and within
// each of sep's atoms it is right-filled: ones at the atom's end, before
// them at most one slot strictly between 0 and 1, zeros before that.
func checkSlotY(t *testing.T, sep *separator, res *LPResult, where string) {
	t.Helper()
	in := sep.in
	if value, _ := perSlotSeparation(in, res.Y[1:]); value < float64(in.TotalLength())-1e-6 {
		t.Errorf("%s: the per-slot flow at Y carries %.9f of %d", where, value, in.TotalLength())
	}
	sum := 0.0
	for _, v := range res.Y {
		sum += v
	}
	if math.Abs(sum-res.Objective) > 1e-9 {
		t.Errorf("%s: Y sums to %.12f, the objective is %.12f", where, sum, res.Objective)
	}
	for _, iv := range sep.ivals {
		t0 := int(iv.hi)
		for t0 >= int(iv.lo) && res.Y[t0] == 1 {
			t0--
		}
		if t0 >= int(iv.lo) && res.Y[t0] > 0 {
			t0--
		}
		for ; t0 >= int(iv.lo); t0-- {
			if res.Y[t0] != 0 {
				t.Fatalf("%s: atom %d..%d is not right-filled: %v", where, iv.lo, iv.hi, res.Y[iv.lo:iv.hi+1])
			}
		}
	}
}

// TestLPResultYRightFilled checks the slot vector SolveLP and a Session
// return on all eight session families, cold and after one delta: it is
// LP1-feasible over the slots, sums to the objective and is right-filled
// within each atom (checkSlotY).
func TestLPResultYRightFilled(t *testing.T) {
	checked := 0
	for _, fam := range sessionFamilies {
		for seed := int64(0); seed < 10; seed++ {
			in := fam.make(seed)
			sess, err := NewSession(in)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%s seed %d: NewSession: %v", fam.name, seed, err)
			}
			res, err := sess.Solve()
			if err != nil {
				t.Fatalf("%s seed %d: Solve: %v", fam.name, seed, err)
			}
			checkSlotY(t, sess.sep, res, fam.name+" cold")
			if mutateSession(t, sess, rand.New(rand.NewSource(seed)), fam.make, seed, 0) {
				if res, err = sess.Solve(); err != nil {
					t.Fatalf("%s seed %d: Solve after a delta: %v", fam.name, seed, err)
				}
				checkSlotY(t, sess.sep, res, fam.name+" after a delta")
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// TestArriveAtomsSplitsInPlace pins arriveAtoms on a hand-made layout:
// slots 1..4 are column 0 and slots 6..8 column 1, slot 5 and slots past 8
// no window ever covered. An arrival over slots 3..10 splits column 0 at
// slot 3 (column 2 takes 3..4), starts a new atom over slot 5 (column 3),
// leaves column 1 whole and starts one more atom over 9..10 (column 4).
func TestArriveAtomsSplitsInPlace(t *testing.T) {
	before := []int32{-1, 0, 0, 0, 0, -1, 1, 1, 1}
	got, ops := arriveAtoms(before, []core.Job{{ID: 9, Release: 2, Deadline: 10, Length: 1}}, 2)
	want := []int32{-1, 0, 0, 2, 2, 3, 1, 1, 1, 4, 4}
	if len(got) != len(want) {
		t.Fatalf("atomCol %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("atomCol %v, want %v", got, want)
		}
	}
	wantOps := []atomOp{{from: 0, bound: 2}, {from: -1, bound: 1}, {from: -1, bound: 2}}
	if len(ops) != len(wantOps) {
		t.Fatalf("ops %v, want %v", ops, wantOps)
	}
	for i := range wantOps {
		if ops[i] != wantOps[i] {
			t.Fatalf("ops %v, want %v", ops, wantOps)
		}
	}
	if n := atomSplits(before, got); n != 1 {
		t.Errorf("atomSplits = %d, want 1", n)
	}
}
