package activetime

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// ChargeKind classifies how an integrally opened slot pays for itself in
// the rounding analysis of Sections 3.2-3.4.
type ChargeKind int

// Charge kinds, in the priority order the paper tries them.
const (
	// ChargeSelf: a fully open slot (y = 1) or half-open slot (y >= 1/2)
	// pays for itself, at most doubling its own LP mass.
	ChargeSelf ChargeKind = iota
	// ChargeDependent: a barely open slot charges an earlier fully open
	// slot without a dependent.
	ChargeDependent
	// ChargeTrio: a barely open slot joins a fully open slot and its
	// existing dependent; the three together hold LP mass >= 3/2.
	ChargeTrio
	// ChargeFiller: a barely open slot fills an earlier half-open slot;
	// the two together hold LP mass >= 1.
	ChargeFiller
)

func (k ChargeKind) String() string {
	switch k {
	case ChargeSelf:
		return "self"
	case ChargeDependent:
		return "dependent"
	case ChargeTrio:
		return "trio"
	case ChargeFiller:
		return "filler"
	}
	return "?"
}

// Charge records how one opened slot is paid for.
type Charge struct {
	Slot   core.Time
	Y      float64 // the slot's right-shifted LP mass
	Kind   ChargeKind
	Target core.Time // the charged slot for dependent/trio/filler (0 for self)
}

// ChargingLedger is the explicit bookkeeping of the Theorem 2 analysis: an
// assignment of every integrally opened slot to a charging group such that
// every group's opened count is at most twice its LP mass. Lemma 6 proves
// such an assignment always exists; BuildChargingLedger constructs it
// greedily in the paper's priority order, and tests assert it succeeds on
// every rounded solution.
type ChargingLedger struct {
	Charges []Charge
	// Groups sums, per charged target, the LP mass and opened count, for
	// the 2x verification.
	Dependents map[core.Time]int // fully open slot -> #dependents (0..2; 2 = trio)
	Fillers    map[core.Time]int // half open slot -> #fillers (0..1)
}

// BuildChargingLedger reconstructs the paper's charging for a rounded
// solution: given the right-shifted LP masses y and the set of opened
// slots, it classifies each opened slot and charges barely open slots in
// the priority order dependent -> trio -> filler. It returns an error if
// some opened slot cannot be charged — which Lemma 6 rules out for
// solutions produced by RoundLP from an optimal LP solution.
func BuildChargingLedger(in *core.Instance, lpres *LPResult, opened []core.Time) (*ChargingLedger, error) {
	shifted, err := RightShiftedY(in, lpres)
	if err != nil {
		return nil, err
	}
	led := &ChargingLedger{
		Dependents: make(map[core.Time]int),
		Fillers:    make(map[core.Time]int),
	}
	slots := append([]core.Time(nil), opened...)
	sort.Slice(slots, func(a, b int) bool { return slots[a] < slots[b] })
	// Classify the right-shifted masses of all slots (not just opened) with
	// the same scale-aware tolerance RightShiftedY snapped them under, so
	// the ledger and the rounding sweep agree on every classification.
	tol := roundingTol(len(shifted) - 1)
	fullyOpen := func(t core.Time) bool { return shifted[t] >= 1-tol }
	halfOpen := func(t core.Time) bool { return shifted[t] >= 0.5-tol && shifted[t] < 1-tol }
	for _, t := range slots {
		y := shifted[t]
		switch {
		case y >= 0.5-tol:
			led.Charges = append(led.Charges, Charge{Slot: t, Y: y, Kind: ChargeSelf})
		default:
			// Barely open (possibly zero if a proxy pointed here): charge
			// per the paper's priority order among earlier opened slots.
			charged := false
			// 1. earliest fully open slot without a dependent. Unlike trio
			// and filler targets, a dependent's target may lie to the right
			// of the barely open slot: in the paper's iteration, a barely
			// open slot at t_d - floor(Y) charges the fully open slot next
			// to it (guaranteed to exist when Y > 1).
			for _, u := range slots {
				if u == t {
					continue
				}
				if fullyOpen(u) && led.Dependents[u] == 0 {
					led.Dependents[u] = 1
					led.Charges = append(led.Charges, Charge{Slot: t, Y: y, Kind: ChargeDependent, Target: u})
					charged = true
					break
				}
			}
			// 2. earliest fully open slot with one dependent, forming a trio
			// whose cumulative mass reaches 3/2.
			if !charged {
				for _, u := range slots {
					if u >= t {
						break
					}
					if fullyOpen(u) && led.Dependents[u] == 1 {
						depMass := trioPartnerMass(led, u)
						if shifted[u]+depMass+y >= 1.5-1e-7 {
							led.Dependents[u] = 2
							led.Charges = append(led.Charges, Charge{Slot: t, Y: y, Kind: ChargeTrio, Target: u})
							charged = true
							break
						}
					}
				}
			}
			// 3. earliest half-open slot without a filler whose combined
			// mass reaches 1.
			if !charged {
				for _, u := range slots {
					if u >= t {
						break
					}
					if halfOpen(u) && led.Fillers[u] == 0 && shifted[u]+y >= 1-1e-7 {
						led.Fillers[u] = 1
						led.Charges = append(led.Charges, Charge{Slot: t, Y: y, Kind: ChargeFiller, Target: u})
						charged = true
						break
					}
				}
			}
			if !charged {
				return nil, fmt.Errorf("activetime: opened slot %d (y=%.3f) cannot be charged", t, y)
			}
		}
	}
	return led, led.verify()
}

func trioPartnerMass(led *ChargingLedger, target core.Time) float64 {
	for _, c := range led.Charges {
		if c.Kind == ChargeDependent && c.Target == target {
			return c.Y
		}
	}
	return 0
}

// verify checks the global property the ledger exists to certify: within
// every charging group, the number of opened slots is at most twice the
// group's LP mass, which summed over groups gives opened <= 2*LP. A charge
// to another slot joins that slot's group; the slot's own mass enters with
// its self charge.
func (led *ChargingLedger) verify() error {
	type group struct {
		mass   float64
		opened int
	}
	groups := make(map[core.Time]*group)
	for _, c := range led.Charges {
		anchor := c.Slot
		if c.Kind != ChargeSelf {
			anchor = c.Target
		}
		g, ok := groups[anchor]
		if !ok {
			g = &group{}
			groups[anchor] = g
		}
		g.mass += c.Y
		g.opened++
	}
	total := 0.0
	opened := 0
	for t, g := range groups {
		if float64(g.opened) > 2*g.mass+1e-6 {
			return fmt.Errorf("activetime: charging group at slot %d opens %d slots with LP mass %.4f",
				t, g.opened, g.mass)
		}
		total += g.mass
		opened += g.opened
	}
	if float64(opened) > 2*total+1e-6 {
		return fmt.Errorf("activetime: ledger total %d opened > 2*%.4f LP mass", opened, total)
	}
	if math.IsNaN(total) {
		return fmt.Errorf("activetime: ledger mass is NaN")
	}
	return nil
}

// Counts summarizes the ledger by charge kind.
func (led *ChargingLedger) Counts() map[ChargeKind]int {
	out := make(map[ChargeKind]int)
	for _, c := range led.Charges {
		out[c.Kind]++
	}
	return out
}

// RightShiftedY materializes the right-shifted LP solution of Lemma 3, for
// the ledger and for the tests that confirm it remains LP-feasible.
func RightShiftedY(in *core.Instance, lpres *LPResult) ([]float64, error) {
	_, _, shifted, err := rightShift(lpres.Y, in.Deadlines())
	return shifted, err
}

// TestChargingLedgerRandom materializes the Section 3.2-3.4 charging for
// rounded solutions of random instances: every opened slot must find a
// charge (Lemma 6) and every charging group must stay within twice its LP
// mass.
func TestChargingLedgerRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	built := 0
	kinds := map[ChargeKind]int{}
	for trial := 0; trial < 60; trial++ {
		in := randInstance(rng, 6, 9, 3)
		lpres, err := SolveLP(in)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := roundWithLP(in, lpres)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		led, err := BuildChargingLedger(in, lpres, res.Schedule.Open)
		if err != nil {
			t.Fatalf("trial %d: %v (instance %+v)", trial, err, in)
		}
		if len(led.Charges) != res.Opened {
			t.Errorf("trial %d: ledger has %d charges for %d opened slots",
				trial, len(led.Charges), res.Opened)
		}
		for k, v := range led.Counts() {
			kinds[k] += v
		}
		built++
	}
	if built < 20 {
		t.Fatalf("only %d ledgers built", built)
	}
	t.Logf("charge kinds over %d instances: %v", built, kinds)
}

// TestChargingLedgerGapGadget exercises the ledger where the LP is
// maximally fractional (the integrality-gap construction).
func TestChargingLedgerGapGadget(t *testing.T) {
	for _, g := range []int{2, 3, 4} {
		in := gen.IntegralityGap(g)
		lpres, err := SolveLP(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := roundWithLP(in, lpres)
		if err != nil {
			t.Fatal(err)
		}
		led, err := BuildChargingLedger(in, lpres, res.Schedule.Open)
		if err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
		if len(led.Charges) != res.Opened {
			t.Errorf("g=%d: %d charges for %d opened", g, len(led.Charges), res.Opened)
		}
	}
}
