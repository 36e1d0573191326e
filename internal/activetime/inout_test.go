package activetime

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// cutSlack is f_A(v) = Σ_I min(g, cov_A(I))·v_I − P(A), the slack of job
// set A's canonical cut at the master point v (v at each atom's column),
// recomputed from the instance and sep's atoms rather than read from the
// master: cov_A(I) counts the jobs of A whose window contains atom I.
func cutSlack(sep *separator, A []bool, v []float64) float64 {
	f := 0.0
	for i, j := range sep.in.Jobs {
		if A[i] {
			f -= float64(j.Length)
		}
	}
	for _, iv := range sep.ivals {
		c := 0
		for i, j := range sep.in.Jobs {
			if A[i] && j.FirstSlot() <= core.Time(iv.lo) && core.Time(iv.hi) <= j.LastSlot() {
				c++
			}
		}
		f += float64(min(c, sep.in.G)) * v[iv.col]
	}
	return f
}

// inOutChecker holds every separation a session reports through its
// sepHook to the in-out contract of Session.Solve:
//
//   - every cut the probe appends is violated at the round's master
//     optimum y* by at least its violation at the probe, which holds
//     because the center satisfies every cut;
//   - the center moves only to a probe whose flow met the demand, so a
//     separator built anew for the instance accepts it, and a probe that
//     appended nothing and left the center where it was is one that such
//     a separator rejects.
//
// The caller resets center to nil before each solve, whose center starts
// at every atom at its bound, every slot open, and reads the solve's last
// separation afterwards. Points are master points, one value per atom
// column.
type inOutChecker struct {
	t         *testing.T
	name      string
	sess      *Session
	center    []float64 // as the previous separation left it
	lastAtY   bool      // the last separation was at y*
	lastAdded int       // and appended this many sets
	// probeCuts, moves and keptMisses count the cuts the probe appended,
	// the moves of the center, and the probes that appended nothing and
	// kept the center where it was.
	probeCuts, moves, keptMisses int
}

func (c *inOutChecker) hook(y, at, next []float64, added [][]bool) {
	t, sess := c.t, c.sess
	if c.center == nil {
		c.center = make([]float64, len(next))
		for j := range c.center {
			c.center[j] = sess.prob.Upper(j)
		}
	}
	atY := slices.Equal(at, y)
	c.lastAtY, c.lastAdded = atY, len(added)
	if !atY {
		for _, A := range added {
			fp, fy := cutSlack(sess.sep, A, at), cutSlack(sess.sep, A, y)
			if fp >= 0 {
				t.Errorf("%s: probe appended a cut with slack %g ≥ 0 at the probe", c.name, fp)
			}
			if fy > fp+1e-9*(1+math.Abs(fp)) {
				t.Errorf("%s: probe cut violated by %g at the probe but only %g at y*", c.name, -fp, -fy)
			}
		}
		c.probeCuts += len(added)
	}
	switch moved := !slices.Equal(next, c.center); {
	case moved && (atY || len(added) > 0):
		t.Errorf("%s: the center moved on a separation that was not a probe without new cuts", c.name)
	case moved:
		c.moves++
		if !slices.Equal(next, at) {
			t.Errorf("%s: the center moved somewhere other than the probe", c.name)
		}
		if newAtomSeparator(sess.in, sess.atomCol).load(next) {
			t.Errorf("%s: the center moved to a probe whose flow misses the demand", c.name)
		}
	case !atY && len(added) == 0 && !slices.Equal(at, c.center):
		if !newAtomSeparator(sess.in, sess.atomCol).load(at) {
			t.Errorf("%s: the center stayed put instead of moving to a feasible probe", c.name)
		}
		c.keptMisses++
	}
	c.center = append(c.center[:0], next...)
}

// TestInOutSeparation replays Session.Solve's rounds on the eight
// generator families, cold and after one delta, and on the end-to-end
// benchmark's first input, holds every separation to inOutChecker's
// contract, and requires each solve's last separation to be at y* itself
// and to append nothing, so that the loop stops exactly where separating
// at y* alone would.
//
// Real rounds never reach the probe that surfaces only sets the master
// already holds: such a set satisfies the master at y* to the simplex's
// 1e-9 and the center to the separator's 1e-6, so at the probe it is
// violated by less than the separator's thresholds. The test forces that
// branch instead, by separating one infeasible point twice: the second
// probe surfaces exactly the sets the first appended, and the center must
// stay.
func TestInOutSeparation(t *testing.T) {
	type solveCase struct {
		name string
		in   *core.Instance
		mk   func(int64) *core.Instance
		seed int64
	}
	var cases []solveCase
	for _, fam := range sessionFamilies {
		for seed := int64(0); seed < 6; seed++ {
			cases = append(cases, solveCase{fam.name, fam.make(seed), fam.make, seed})
		}
	}
	bench := gen.LargeHorizon(gen.RandomConfig{N: 256, Horizon: 2048, MaxLen: 16, G: 4, Seed: 1000})
	cases = append(cases, solveCase{name: "bench", in: bench})
	var solves, probeCuts, moves int
	for _, c := range cases {
		chk := &inOutChecker{t: t, name: c.name}
		sess, err := newSession(c.in, lpOptions{purge: true, sepHook: chk.hook})
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatalf("%s: newSession: %v", c.name, err)
		}
		chk.sess = sess
		solve := func(stage string) {
			t.Helper()
			chk.center, chk.lastAdded = nil, -1
			res, err := sess.Solve()
			if err != nil {
				t.Fatalf("%s %s: Solve: %v", c.name, stage, err)
			}
			if res.ColdFallbacks != 0 {
				t.Errorf("%s %s: %d warm-start fallbacks", c.name, stage, res.ColdFallbacks)
			}
			if !chk.lastAtY || chk.lastAdded != 0 {
				t.Errorf("%s %s: the last separation (at y*: %v) appended %d sets; want one at y* that appends none",
					c.name, stage, chk.lastAtY, chk.lastAdded)
			}
			solves++
		}
		solve("cold")
		if c.mk != nil && mutateSession(t, sess, rand.New(rand.NewSource(c.seed)), c.mk, c.seed, 0) {
			solve("delta")
		}
		probeCuts += chk.probeCuts
		moves += chk.moves
	}
	if solves < 60 || probeCuts == 0 || moves == 0 {
		t.Errorf("the replay is vacuous: %d solves, %d probe cuts, %d center moves", solves, probeCuts, moves)
	}
	t.Logf("%d solves: %d probe cuts, %d center moves", solves, probeCuts, moves)

	chk := &inOutChecker{t: t, name: "bench, y = 0 twice"}
	sess, err := newSession(bench, lpOptions{purge: true, sepHook: chk.hook})
	if err != nil {
		t.Fatal(err)
	}
	chk.sess = sess
	y := make([]float64, sess.prob.NumVars())
	center, probe := make([]float64, len(y)), make([]float64, len(y))
	for j := range center {
		center[j] = sess.prob.Upper(j)
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := sess.separateInOut(y, center, probe, adaptiveBatchCap(bench)); err != nil {
			t.Fatal(err)
		}
	}
	if chk.keptMisses != 1 {
		t.Errorf("separating y = 0 twice kept the center on %d probes that appended nothing, want 1", chk.keptMisses)
	}
}
