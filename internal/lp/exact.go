package lp

import (
	"errors"
	"math"
	"math/big"
)

// RatSolution is the result of an exact rational solve.
type RatSolution struct {
	Status    Status
	X         []*big.Rat
	Objective *big.Rat
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
// pivoting; it exists for validation, not speed). Every call builds its
// tableau from the problem's current rows and runs the two-phase simplex
// from scratch, so no state survives between calls. Intended for small
// problems and for validating Solve.
func SolveExact(p *Problem) (*RatSolution, error) {
	if p.numVars == 0 {
		return nil, errors.New("lp: problem has no variables")
	}
	t, err := newRatTableau(boundsAsRows(p))
	if err != nil {
		return nil, err
	}
	sol := &RatSolution{Status: t.run()}
	if sol.Status != Optimal {
		return sol, nil
	}
	sol.X = t.primal()
	sol.Objective = new(big.Rat)
	term := new(big.Rat)
	for j, x := range sol.X {
		sol.Objective.Add(sol.Objective, term.Mul(t.cost[j], x))
	}
	return sol, nil
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
	firstArt int // first artificial column; artificials follow every slack
	a        [][]*big.Rat
	rhs      []*big.Rat
	basis    []int
	cost     []*big.Rat
	active   []bool
}

// isBarred reports whether column j is a phase-1 artificial, which may
// never re-enter the basis in phase 2.
func (t *ratTableau) isBarred(j int) bool {
	return j >= t.firstArt
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

func (t *ratTableau) run() Status {
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
			return IterLimit
		}
		artSum := new(big.Rat)
		for i := 0; i < t.m; i++ {
			if t.active[i] && t.basis[i] >= t.firstArt {
				artSum.Add(artSum, t.rhs[i])
			}
		}
		if artSum.Sign() > 0 {
			return Infeasible
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
	return t.iterate(t.cost, t.isBarred, &budget)
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
