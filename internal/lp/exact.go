package lp

import (
	"errors"
	"fmt"
	"math"
	"math/big"
)

// RatSolution is the result of an exact rational solve.
type RatSolution struct {
	Status     Status
	X          []*big.Rat
	Objective  *big.Rat
	Iterations int
}

// Float64s returns the solution vector converted to float64.
func (s *RatSolution) Float64s() []float64 {
	out := make([]float64, len(s.X))
	for i, x := range s.X {
		out[i], _ = x.Float64()
	}
	return out
}

// SolveExact optimizes the problem in exact rational arithmetic using
// Bland's rule (guaranteed termination). Input float64 coefficients are
// converted exactly via big.Rat.SetFloat64, so integral and dyadic data stay
// exact. Variable upper bounds set with SetUpper are materialized as
// explicit "x_j <= u" rows (the rational engine has no bounded-variable
// pivoting; it exists for validation, not speed). Intended for small
// problems and for validating Solve.
func SolveExact(p *Problem) (*RatSolution, error) {
	sol, _, err := p.ResolveExactFrom(nil)
	return sol, err
}

// RatBasis is the persistent working state of the exact rational engine,
// enabling warm re-solves via ResolveExactFrom. Like the float engine's
// Basis it is tied to the Problem that produced it and is consumed by the
// next call.
type RatBasis struct {
	t         *ratTableau
	rowsBuilt int       // Problem rows incorporated into the tableau
	epoch     int       // Problem.removeEpoch at capture; removals invalidate
	upper     []float64 // bound snapshot; bound changes invalidate the basis
}

// ResolveExactFrom optimizes the problem exactly, warm-starting from prev
// when non-nil: the previous round's optimal rational dictionary is reused
// as the starting basis, rows appended since (LE or GE — the shapes Benders
// cut generation produces) are eliminated against it and repaired with the
// exact dual simplex under Bland's rule, and a final barred primal pass
// certifies optimality. The warm-start contract is narrower than
// ResolveFrom's: only row appends between calls — no column appends, bound
// changes or objective changes. A warm solve that cannot
// finish (EQ append, pivot budget) falls back to a cold run of the full
// problem. The returned RatBasis is nil when the solve did not end Optimal.
func (p *Problem) ResolveExactFrom(prev *RatBasis) (*RatSolution, *RatBasis, error) {
	if p.numVars == 0 {
		return nil, nil, errors.New("lp: problem has no variables")
	}
	warmSpent := 0
	if prev != nil && prev.t != nil {
		if prev.t.n != p.numVars {
			return nil, nil, fmt.Errorf("lp: exact basis has %d variables, problem has %d", prev.t.n, p.numVars)
		}
		if prev.rowsBuilt > len(p.b) {
			return nil, nil, errors.New("lp: problem has fewer rows than the exact basis (rows were removed)")
		}
		if prev.epoch != p.removeEpoch {
			return nil, nil, errors.New("lp: rows were removed since the exact basis was captured; re-solve cold")
		}
		if j, changed := p.upperChanged(prev.upper); changed {
			return nil, nil, fmt.Errorf("lp: upper bound of variable %d changed since the exact basis was captured; re-solve cold", j)
		}
		sol, ok, spent, err := p.resolveExactWarm(prev)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			if sol.Status != Optimal {
				return sol, nil, nil
			}
			prev.rowsBuilt = len(p.b)
			return sol, prev, nil
		}
		// Fall through to a cold solve; the wasted warm pivots are carried
		// into its Iterations so effort reports never hide a failed warm
		// attempt.
		warmSpent = spent
	}
	q := boundsAsRows(p)
	t, err := newRatTableau(q)
	if err != nil {
		return nil, nil, err
	}
	status, iters := t.run()
	sol := &RatSolution{Status: status, Iterations: warmSpent + iters}
	if status != Optimal {
		return sol, nil, nil
	}
	if err := t.fillSolution(p, sol); err != nil {
		return nil, nil, err
	}
	upper := make([]float64, p.numVars)
	for j := range upper {
		upper[j] = math.Inf(1)
	}
	if p.upper != nil {
		copy(upper, p.upper)
	}
	return sol, &RatBasis{t: t, rowsBuilt: len(p.b), epoch: p.removeEpoch, upper: upper}, nil
}

// resolveExactWarm incorporates the rows appended since prev was captured
// and re-optimizes with the exact dual simplex. ok is false when the warm
// path cannot finish (unsupported append shape, pivot budget); spent then
// reports the pivots it wasted so the caller's cold fallback can account
// for them.
func (p *Problem) resolveExactWarm(prev *RatBasis) (sol *RatSolution, ok bool, spent int, err error) {
	t := prev.t
	for r := prev.rowsBuilt; r < len(p.b); r++ {
		if p.rel[r] == EQ {
			return nil, false, 0, nil // only the covering shapes warm-start
		}
		if err := t.appendRow(p.rowCols[r], p.rowVals[r], p.rel[r], p.b[r]); err != nil {
			return nil, false, 0, nil
		}
	}
	budget := maxPivots
	status := t.dualIterate(t.cost, t.isBarred, &budget)
	if status == Optimal {
		status = t.iterate(t.cost, t.isBarred, &budget)
	}
	iters := maxPivots - budget
	if status == IterLimit {
		return nil, false, iters, nil
	}
	sol = &RatSolution{Status: status, Iterations: iters}
	if status != Optimal {
		return sol, true, iters, nil
	}
	if err := t.fillSolution(p, sol); err != nil {
		return nil, false, iters, err
	}
	return sol, true, iters, nil
}

// fillSolution extracts the primal point and objective for the original
// problem p from the tableau.
func (t *ratTableau) fillSolution(p *Problem, sol *RatSolution) error {
	sol.X = t.primal()
	obj := new(big.Rat)
	for j := range p.c {
		if p.c[j] == 0 {
			continue
		}
		cj, ok := new(big.Rat).SetString(floatRat(p.c[j]))
		if !ok {
			return errors.New("lp: bad objective coefficient")
		}
		obj.Add(obj, new(big.Rat).Mul(cj, sol.X[j]))
	}
	sol.Objective = obj
	return nil
}

// boundsAsRows returns a shallow copy of p with every finite upper bound
// appended as an explicit LE row, leaving p untouched. Problems without
// finite bounds are returned as-is.
func boundsAsRows(p *Problem) *Problem {
	finite := 0
	for _, u := range p.upper {
		if !math.IsInf(u, 1) {
			finite++
		}
	}
	if finite == 0 {
		return p
	}
	m := len(p.b)
	q := &Problem{
		numVars: p.numVars,
		c:       p.c,
		rowCols: append(make([][]int32, 0, m+finite), p.rowCols...),
		rowVals: append(make([][]float64, 0, m+finite), p.rowVals...),
		rel:     append(make([]Relation, 0, m+finite), p.rel...),
		b:       append(make([]float64, 0, m+finite), p.b...),
	}
	for j, u := range p.upper {
		if math.IsInf(u, 1) {
			continue
		}
		q.rowCols = append(q.rowCols, []int32{int32(j)})
		q.rowVals = append(q.rowVals, []float64{1})
		q.rel = append(q.rel, LE)
		q.b = append(q.b, u)
	}
	return q
}

func floatRat(f float64) string {
	r := new(big.Rat).SetFloat64(f)
	if r == nil {
		return "0"
	}
	return r.RatString()
}

func rat(f float64) (*big.Rat, error) {
	r := new(big.Rat).SetFloat64(f)
	if r == nil {
		return nil, errors.New("lp: non-finite coefficient")
	}
	return r, nil
}

type ratTableau struct {
	m, n     int
	nTotal   int
	firstArt int // first artificial column of the initial build
	artEnd   int // one past the last artificial; appended logicals follow
	a        [][]*big.Rat
	rhs      []*big.Rat
	basis    []int
	cost     []*big.Rat
	active   []bool
}

// isBarred reports whether column j is a phase-1 artificial, which may
// never re-enter the basis in phase 2. Logical columns appended by warm
// re-solves land beyond artEnd and stay pivotable.
func (t *ratTableau) isBarred(j int) bool {
	return j >= t.firstArt && j < t.artEnd
}

func newRatTableau(p *Problem) (*ratTableau, error) {
	m, n := len(p.b), p.numVars
	type rowKind struct {
		rel  Relation
		flip bool
	}
	kinds := make([]rowKind, m)
	nSlack, nArt := 0, 0
	for i := range p.b {
		rel, b := p.rel[i], p.b[i]
		flip := b < 0
		if flip {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		kinds[i] = rowKind{rel, flip}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	t := &ratTableau{
		m: m, n: n,
		nTotal:   n + nSlack + nArt,
		firstArt: n + nSlack,
		artEnd:   n + nSlack + nArt,
		a:        make([][]*big.Rat, m),
		rhs:      make([]*big.Rat, m),
		basis:    make([]int, m),
		cost:     make([]*big.Rat, n+nSlack+nArt),
		active:   make([]bool, m),
	}
	for j := range t.cost {
		t.cost[j] = new(big.Rat)
	}
	for j := 0; j < n; j++ {
		cj, err := rat(p.c[j])
		if err != nil {
			return nil, err
		}
		t.cost[j] = cj
	}
	slack, art := n, t.firstArt
	for i := range p.b {
		row := make([]*big.Rat, t.nTotal)
		for j := range row {
			row[j] = new(big.Rat)
		}
		sign := int64(1)
		if kinds[i].flip {
			sign = -1
		}
		signRat := new(big.Rat).SetInt64(sign)
		for k, c := range p.rowCols[i] {
			v, err := rat(p.rowVals[i][k])
			if err != nil {
				return nil, err
			}
			row[c].Mul(signRat, v)
		}
		bi, err := rat(p.b[i])
		if err != nil {
			return nil, err
		}
		t.rhs[i] = new(big.Rat).Mul(signRat, bi)
		t.active[i] = true
		switch kinds[i].rel {
		case LE:
			row[slack].SetInt64(1)
			t.basis[i] = slack
			slack++
		case GE:
			row[slack].SetInt64(-1)
			slack++
			row[art].SetInt64(1)
			t.basis[i] = art
			art++
		case EQ:
			row[art].SetInt64(1)
			t.basis[i] = art
			art++
		}
		t.a[i] = row
	}
	return t, nil
}

// appendRow adds one LE or GE constraint to a solved tableau: the row is
// normalized so its fresh logical column can serve as the basic variable,
// every currently basic column is eliminated from it against the active
// dictionary rows, and the logical enters the basis — at a negative value
// exactly when the current point violates the row, which is what the dual
// simplex then repairs. The new logical is a plain slack/surplus, never an
// artificial, so it stays eligible for pivoting in later rounds.
func (t *ratTableau) appendRow(cols []int32, vals []float64, rel Relation, b float64) error {
	// Grow every existing row by the new logical column. The column block
	// layout ([structural | slack | artificial]) is not preserved for
	// appended logicals — they land after the artificials, which is safe
	// because barred() bars by index range and the new column must NOT be
	// barred.
	col := t.nTotal
	t.nTotal++
	for i := range t.a {
		t.a[i] = append(t.a[i], new(big.Rat))
	}
	t.cost = append(t.cost, new(big.Rat))
	newRow := make([]*big.Rat, t.nTotal)
	for j := range newRow {
		newRow[j] = new(big.Rat)
	}
	sign := int64(1)
	if rel == GE {
		sign = -1 // -a·x + s = -b: the slack keeps a +1 coefficient
	}
	signRat := new(big.Rat).SetInt64(sign)
	for k, c := range cols {
		v, err := rat(vals[k])
		if err != nil {
			return err
		}
		newRow[c].Mul(signRat, v)
	}
	newRow[col].SetInt64(1)
	bi, err := rat(b)
	if err != nil {
		return err
	}
	rhs := new(big.Rat).Mul(signRat, bi)
	// Eliminate the basic variables of the active dictionary rows.
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if !t.active[i] {
			continue
		}
		f := new(big.Rat).Set(newRow[t.basis[i]])
		if f.Sign() == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.nTotal; j++ {
			if ai[j].Sign() == 0 {
				continue
			}
			tmp.Mul(f, ai[j])
			newRow[j].Sub(newRow[j], tmp)
		}
		tmp.Mul(f, t.rhs[i])
		rhs.Sub(rhs, tmp)
	}
	t.a = append(t.a, newRow)
	t.rhs = append(t.rhs, rhs)
	t.basis = append(t.basis, col)
	t.active = append(t.active, true)
	t.m++
	return nil
}

// dualIterate restores primal feasibility after appended rows while
// maintaining dual feasibility, using Bland's rule throughout (first
// negative right-hand side leaves; among minimum-ratio columns the lowest
// index enters), which guarantees termination in exact arithmetic.
func (t *ratTableau) dualIterate(cost []*big.Rat, barred func(int) bool, budget *int) Status {
	ratio := new(big.Rat)
	for {
		if *budget <= 0 {
			return IterLimit
		}
		*budget--
		row := -1
		for i := 0; i < t.m; i++ {
			if t.active[i] && t.rhs[i].Sign() < 0 {
				row = i
				break
			}
		}
		if row < 0 {
			return Optimal
		}
		red := t.reducedCosts(cost, barred)
		col := -1
		var bestRatio *big.Rat
		for j := 0; j < t.nTotal; j++ {
			if t.a[row][j].Sign() >= 0 || (barred != nil && barred(j)) {
				continue
			}
			ratio.Quo(red[j], new(big.Rat).Neg(t.a[row][j]))
			if col < 0 || ratio.Cmp(bestRatio) < 0 {
				col = j
				bestRatio = new(big.Rat).Set(ratio)
			}
		}
		if col < 0 {
			return Infeasible
		}
		t.pivot(row, col)
	}
}

func (t *ratTableau) reducedCosts(cost []*big.Rat, barred func(int) bool) []*big.Rat {
	red := make([]*big.Rat, t.nTotal)
	for j := range red {
		red[j] = new(big.Rat).Set(cost[j])
	}
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if !t.active[i] {
			continue
		}
		cb := cost[t.basis[i]]
		if cb.Sign() == 0 {
			continue
		}
		for j := 0; j < t.nTotal; j++ {
			if t.a[i][j].Sign() == 0 {
				continue
			}
			tmp.Mul(cb, t.a[i][j])
			red[j].Sub(red[j], tmp)
		}
	}
	if barred != nil {
		for j := range red {
			if barred(j) {
				red[j].SetInt64(0)
			}
		}
	}
	return red
}

func (t *ratTableau) pivot(row, col int) {
	inv := new(big.Rat).Inv(t.a[row][col])
	arow := t.a[row]
	for j := range arow {
		if arow[j].Sign() != 0 {
			arow[j].Mul(arow[j], inv)
		}
	}
	t.rhs[row].Mul(t.rhs[row], inv)
	arow[col].SetInt64(1)
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == row || !t.active[i] {
			continue
		}
		f := new(big.Rat).Set(t.a[i][col])
		if f.Sign() == 0 {
			continue
		}
		ai := t.a[i]
		for j := range ai {
			if arow[j].Sign() == 0 {
				continue
			}
			tmp.Mul(f, arow[j])
			ai[j].Sub(ai[j], tmp)
		}
		ai[col].SetInt64(0)
		tmp.Mul(f, t.rhs[row])
		t.rhs[i].Sub(t.rhs[i], tmp)
	}
	t.basis[row] = col
}

func (t *ratTableau) iterate(cost []*big.Rat, barred func(int) bool, budget *int) Status {
	for {
		if *budget <= 0 {
			return IterLimit
		}
		*budget--
		red := t.reducedCosts(cost, barred)
		col := -1
		for j := 0; j < t.nTotal; j++ { // Bland: first negative
			if red[j].Sign() < 0 {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal
		}
		row := -1
		var bestRatio *big.Rat
		ratio := new(big.Rat)
		for i := 0; i < t.m; i++ {
			if !t.active[i] || t.a[i][col].Sign() <= 0 {
				continue
			}
			ratio.Quo(t.rhs[i], t.a[i][col])
			if row < 0 || ratio.Cmp(bestRatio) < 0 ||
				(ratio.Cmp(bestRatio) == 0 && t.basis[i] < t.basis[row]) {
				row = i
				bestRatio = new(big.Rat).Set(ratio)
			}
		}
		if row < 0 {
			return Unbounded
		}
		t.pivot(row, col)
	}
}

func (t *ratTableau) run() (Status, int) {
	budget := maxPivots
	if t.firstArt < t.nTotal {
		phase1 := make([]*big.Rat, t.nTotal)
		for j := range phase1 {
			phase1[j] = new(big.Rat)
			if j >= t.firstArt {
				phase1[j].SetInt64(1)
			}
		}
		st := t.iterate(phase1, nil, &budget)
		if st == IterLimit {
			return IterLimit, maxPivots - budget
		}
		artSum := new(big.Rat)
		for i := 0; i < t.m; i++ {
			if t.active[i] && t.basis[i] >= t.firstArt {
				artSum.Add(artSum, t.rhs[i])
			}
		}
		if artSum.Sign() > 0 {
			return Infeasible, maxPivots - budget
		}
		for i := 0; i < t.m; i++ {
			if !t.active[i] || t.basis[i] < t.firstArt {
				continue
			}
			pivoted := false
			for j := 0; j < t.firstArt; j++ {
				if t.a[i][j].Sign() != 0 {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				t.active[i] = false
			}
		}
	}
	st := t.iterate(t.cost, t.isBarred, &budget)
	return st, maxPivots - budget
}

func (t *ratTableau) primal() []*big.Rat {
	x := make([]*big.Rat, t.n)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i := 0; i < t.m; i++ {
		if t.active[i] && t.basis[i] < t.n {
			x[t.basis[i]].Set(t.rhs[i])
		}
	}
	return x
}
