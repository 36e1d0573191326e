package activetime

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// ErrRoundingInfeasible reports that the rounding sweep ended on a slot set
// that cannot schedule every job. The hybrid close certificates make this
// unreachable for an optimal LP1 solution; it surfaces when the supplied
// LP solution is not feasible for LP1, or when floating-point drift breaks
// a certificate.
var ErrRoundingInfeasible = errors.New("activetime: rounding produced an infeasible slot set")

// RoundingResult is the outcome of the LP-rounding 2-approximation.
type RoundingResult struct {
	Schedule *core.ActiveSchedule
	// LPValue is the optimal LP objective (a lower bound on OPT); Opened is
	// the number of integrally opened slots. Theorem 2 guarantees
	// Opened <= 2*LPValue; tests assert it.
	LPValue float64
	Opened  int
	// FlowChecks counts hybrid-feasibility max-flows run while deciding
	// whether barely open slots could be closed; ProxyCarries counts proxy
	// slots passed between iterations. Repairs is always 0: every close is
	// certified against the full hybrid solution, so the sweep's output is
	// integrally feasible by construction, and a slot set that is not fails
	// with ErrRoundingInfeasible instead of being patched. It stays in the
	// result for the bench records and gates that read it.
	FlowChecks   int
	ProxyCarries int
	Repairs      int
	// ColdFlows counts integral max flows that started from zero routed
	// flow: exactly 1, Assign's, which both checks the opened slots and
	// extracts the schedule. The sweep's hybrid checks carry their flow
	// from one close to the next and are counted in FlowChecks; a
	// from-scratch regression shows up here.
	ColdFlows int
	// DroppedMass is fractional proxy mass the sweep could not place in any
	// slot (segment exhausted and the carried proxy's slot already open) and
	// that was still unplaced when the sweep ended. It is charged nowhere,
	// so the Theorem 2 accounting is only exact up to this amount; tests
	// assert it stays below the snap tolerance.
	DroppedMass float64
	// InvariantViolated records whether the running 2*LP charging invariant
	// ever failed (never expected; tests assert false).
	InvariantViolated bool
	// Per-phase wall time in milliseconds: LP solve (zero when the caller
	// supplied a precomputed LP), right shift, rounding sweep, and the
	// assignment flow that checks the opened slots and extracts the
	// schedule.
	LPMillis, ShiftMillis, SweepMillis, AssignMillis float64
}

const (
	yEps = 1e-7 // base snap tolerance for fractional slot mass at T ~ 1
)

// roundingTol is the scale-aware snap tolerance for slot mass over a
// horizon of T slots. The LP engine's per-entry noise accumulates over
// O(T)-length sums; even compensated summation leaves the comparison
// against solver output exposed to the solver's own per-entry error, which
// grows like sqrt(T) under random rounding. At T = 32768 the fixed yEps is
// the same order as that drift, so integral parts misround; scaling by
// sqrt(T) keeps the snap safely above the noise while staying far below the
// 0.5 rounding threshold (~1.8e-5 at T = 32768).
func roundingTol(T int) float64 {
	if T < 1 {
		T = 1
	}
	return yEps * math.Max(1, math.Sqrt(float64(T)))
}

// kahanAdd adds v into the compensated accumulator (sum, comp), returning
// the updated pair. Neumaier's variant is unnecessary here: the summands
// are slot masses in [0, 1], so the running sum dominates each term.
func kahanAdd(sum, comp, v float64) (float64, float64) {
	y := v - comp
	t := sum + y
	return t, (t - sum) - y
}

// RoundLP runs the full 2-approximation of Theorem 2: solve LP1 optimally,
// right-shift the solution per deadline segment (Lemma 3), then round
// deadline by deadline (Sections 3.2-3.4), maintaining at most one proxy
// slot; a barely open slot is closed only when a max-flow check certifies
// that the hybrid solution — every integral decision made so far plus the
// still-fractional right-shifted future — completes every job without that
// slot's mass, and opened (charging earlier fully/half-open slots)
// otherwise.
//
// Checking every job, not just the jobs already due, is what makes the
// sweep's output integrally feasible by construction. A due-jobs-only check
// admits closes whose carried proxy mass migrates past the deadlines of
// not-yet-due jobs that shared the closed slot's capacity: each individual
// check passes, but the jobs' joint Hall condition — tight at an optimal
// vertex — is broken by the time they come due, and no later decision can
// repair it (observed as a one-unit deficiency on LargeHorizon covering
// instances whose optimum sits on a mass-bound-tight vertex). Future
// fractional capacity is unusable by due jobs (their windows have closed),
// so the hybrid check is strictly stronger, and it preserves LP feasibility
// of the hybrid vector inductively: right-shift preserves it (Lemma 3),
// opens only add capacity, and every close re-certifies it. The final
// all-integral vector is then LP-feasible with integer capacities, hence
// schedulable by flow integrality.
func RoundLP(in *core.Instance) (*RoundingResult, error) {
	start := time.Now()
	lpres, err := SolveLP(in)
	if err != nil {
		return nil, err
	}
	lpMillis := float64(time.Since(start).Microseconds()) / 1000
	res, err := roundWithLP(in, lpres)
	if err != nil {
		return nil, err
	}
	res.LPMillis = lpMillis
	return res, nil
}

// roundWithLP rounds a precomputed LP solution (exposed for tests).
func roundWithLP(in *core.Instance, lpres *LPResult) (*RoundingResult, error) {
	res := &RoundingResult{LPValue: lpres.Objective}
	tol := roundingTol(len(lpres.Y) - 1)
	phase := time.Now()
	deadlines := in.Deadlines()
	segY, segStart, shifted, err := rightShift(lpres.Y, deadlines)
	if err != nil {
		return nil, err
	}
	res.ShiftMillis = float64(time.Since(phase).Microseconds()) / 1000
	phase = time.Now()
	// The hybrid vector: slot t ↔ hy[t-1] (the solver's variable order).
	// Starts as the right-shifted fractional solution; the sweep overwrites
	// each segment with its integral decisions as it passes. Feasibility of
	// this vector is the induction invariant that keeps the final slot set
	// schedulable, and mix is the incremental max-flow network that certifies
	// it — the same flow-carrying machinery as the Benders separation oracle,
	// re-capacitating only the slots a decision touched.
	hy := shifted[1:]
	mix := newSeparator(in)
	mix.incremental = true
	opened := make(map[core.Time]bool)
	var openList []core.Time
	openSlot := func(t core.Time) {
		if !opened[t] {
			opened[t] = true
			openList = append(openList, t)
		}
	}
	var cumY, cumComp float64
	proxyVal := 0.0
	var proxyPtr core.Time
	haveProxyPtr := false
	invSlack := math.Max(1e-6, tol)

	for i, d := range deadlines {
		cumY, cumComp = kahanAdd(cumY, cumComp, segY[i])
		yi := segY[i] + proxyVal
		hadProxy := proxyVal > tol
		oldPtr, hadPtr := proxyPtr, haveProxyPtr
		proxyVal, proxyPtr, haveProxyPtr = 0, 0, false
		if yi <= tol {
			continue
		}
		segLen := int(d - segStart[i] + 1)
		ipart := int(math.Floor(yi + tol))
		frac := yi - float64(ipart)
		if frac < tol {
			frac = 0
		}
		if frac > 1-tol {
			ipart++
			frac = 0
		}
		if ipart > segLen {
			// Proxy mass cannot push the integral part past the segment
			// (Y_i <= segLen and proxy < 1): defensive clamp.
			ipart = segLen
			frac = 0
		}
		for k := 0; k < ipart; k++ {
			s := d - core.Time(k)
			openSlot(s)
			hy[s-1] = 1
		}
		// The rest of the segment's right-shifted mass has been consumed
		// into ipart/frac: zero it in the hybrid vector so the close check
		// below cannot count it twice. After right-shifting, only the slot
		// at d-ipart can still hold mass here.
		for s := segStart[i]; s <= d-core.Time(ipart); s++ {
			hy[s-1] = 0
		}
		if frac > 0 {
			fslot, haveSlot := core.Time(0), false
			switch {
			case ipart < segLen:
				fslot, haveSlot = d-core.Time(ipart), true
			case hadProxy && hadPtr && !opened[oldPtr]:
				fslot, haveSlot = oldPtr, true // segment exhausted: fall back to the proxy's slot
			}
			switch {
			case !haveSlot:
				// No slot can host the remainder here. Carry the mass to the
				// next segment as a slotless proxy so the charging stays
				// auditable instead of silently discarding it; whatever is
				// still unplaced when the sweep ends is counted in
				// DroppedMass.
				proxyVal = frac
				res.ProxyCarries++
			case frac >= 0.5-tol:
				// Half open: always open integrally (charged to itself, at
				// most doubling its LP mass).
				openSlot(fslot)
				hy[fslot-1] = 1
			default:
				// Barely open: close it only if the hybrid solution still
				// completes every job without this slot's mass (hy[fslot-1]
				// is already zero — the segment zeroing above, or the slot's
				// own earlier certified close in the proxy-fallback case).
				// load reports violation, so feasible is its negation.
				res.FlowChecks++
				if !mix.load(hy) {
					proxyVal = frac
					proxyPtr = fslot
					haveProxyPtr = true
					res.ProxyCarries++
				} else {
					openSlot(fslot)
					hy[fslot-1] = 1
				}
			}
		}
		if float64(len(openList)) > 2*cumY+invSlack {
			res.InvariantViolated = true
		}
	}
	if proxyVal > tol && !haveProxyPtr {
		// Slotless proxy mass survived to the end of the sweep: it was never
		// placed and never flow-checked, so account for it explicitly.
		res.DroppedMass += proxyVal
	}
	res.SweepMillis = float64(time.Since(phase).Microseconds()) / 1000
	phase = time.Now()
	// One integral max flow over the opened slots both checks them and
	// extracts the schedule. The hybrid close certificates make a failure
	// unreachable for an optimal LP solution in exact arithmetic, so a
	// failure is reported, never patched.
	sched, err := Assign(in, openList)
	if err != nil {
		return nil, fmt.Errorf("%w: %d opened slots", ErrRoundingInfeasible, len(openList))
	}
	res.ColdFlows = 1
	res.AssignMillis = float64(time.Since(phase).Microseconds()) / 1000
	res.Schedule = sched
	res.Opened = len(openList)
	return res, nil
}

// rightShift computes the right-shifted LP solution of Lemma 3: per
// deadline segment, the LP mass Y_i and the first slot of the segment, and
// the vector with each Y_i packed into its segment's rightmost slots.
// Segment i covers slots (d_{i-1}, d_i], with d_0 one slot before the
// earliest fractionally open slot (the paper's dummy deadline t_{d0}).
// Per-segment sums are compensated so segment masses stay exact to the last
// bit even when a segment spans tens of thousands of slots. Residues below
// the segment tolerance are snapped — a leftover of ~1e-16 from the
// repeated subtraction must not materialize as an "open" slot that
// downstream tolerance scans disagree about, and a slot within tolerance of
// 1 is emitted as exactly 1.
func rightShift(y []float64, deadlines []core.Time) (segY []float64, segStart []core.Time, shifted []float64, err error) {
	T := core.Time(len(y) - 1)
	tol := roundingTol(int(T))
	first := core.Time(0)
	for t := core.Time(1); t <= T; t++ {
		if y[t] > tol {
			first = t
			break
		}
	}
	if first == 0 {
		return nil, nil, nil, fmt.Errorf("activetime: LP solution has no open slots")
	}
	if len(deadlines) == 0 {
		return nil, nil, nil, fmt.Errorf("activetime: no deadlines")
	}
	if first > deadlines[0] {
		return nil, nil, nil, fmt.Errorf("activetime: first fractional slot %d after earliest deadline %d", first, deadlines[0])
	}
	segY = make([]float64, len(deadlines))
	segStart = make([]core.Time, len(deadlines))
	shifted = make([]float64, len(y))
	prev := first - 1
	for i, d := range deadlines {
		segStart[i] = prev + 1
		var sum, comp float64
		for t := prev + 1; t <= d; t++ {
			sum, comp = kahanAdd(sum, comp, y[t])
		}
		segY[i] = sum
		for t, yi := d, sum; t >= segStart[i] && yi > tol; t-- {
			v := math.Min(1, yi)
			if v > 1-tol {
				v = 1
			}
			shifted[t] = v
			yi -= v
		}
		prev = d
	}
	return segY, segStart, shifted, nil
}

// RightShiftedY materializes the right-shifted LP solution of Lemma 3 (used
// by tests to confirm it remains LP-feasible, and by the charging ledger).
func RightShiftedY(in *core.Instance, lpres *LPResult) ([]float64, error) {
	_, _, shifted, err := rightShift(lpres.Y, in.Deadlines())
	return shifted, err
}
