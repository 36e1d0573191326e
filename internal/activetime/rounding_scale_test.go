package activetime

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/lp"
)

// TestTrialCloseMatchesFreshFlow is the equivalence property behind the
// flow-carrying rewrite of the closing loops: on every family, a closing
// sweep that carries one max flow across all trial closes must make exactly
// the same close/keep decision at every slot as the historical loop that
// recomputed a fresh max flow per probe. The decisions agree because the
// max-flow *value* does not depend on which maximal flow happens to be
// routed — this test is the executable form of that argument.
func TestTrialCloseMatchesFreshFlow(t *testing.T) {
	const seedsPerFamily = 8
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			open := AllSlots(in)
			if !CheckFeasible(in, open) {
				continue
			}
			fc := fullChecker(in, open)
			if !fc.feasible() {
				t.Fatalf("%s seed %d: checker disagrees with CheckFeasible on the full slot set", fam.name, seed)
			}
			isOpen := make(map[core.Time]bool, len(open))
			for _, s := range open {
				isOpen[s] = true
			}
			for _, s := range open {
				// Fresh-flow oracle: close s iff the remaining open set still
				// carries all jobs, computed on a brand-new one-shot network.
				rest := make([]core.Time, 0, len(open))
				for _, u := range open {
					if isOpen[u] && u != s {
						rest = append(rest, u)
					}
				}
				want := CheckFeasible(in, rest)
				if got := fc.trialCloseSlot(s); got != want {
					t.Fatalf("%s seed %d slot %d: incremental close=%v, fresh-flow close=%v",
						fam.name, seed, s, got, want)
				}
				if want {
					isOpen[s] = false
				}
			}
			if fc.coldFlows != 1 {
				t.Errorf("%s seed %d: %d cold flows across the sweep, want exactly 1", fam.name, seed, fc.coldFlows)
			}
		}
	}
}

// TestFeasCheckerToggleEquivalence drives the flow-carrying checker through
// adversarial slot and job toggle sequences — including reopening slots and
// switching jobs off and back on — and checks every feasibility verdict
// against a fresh one-shot max flow over the same configuration. This is
// the state-corruption net for SetCapacityKeepFlow/PushBack bookkeeping:
// any excess mis-cancelled on a capacity decrease shows up as a verdict
// mismatch within a few toggles. After every toggle it also opens, closes
// and trial-closes a slot outside every window (slot 0, one past the last
// deadline, or a gap between windows): each must be a no-op that leaves
// every edge as it was, and the trial close must succeed.
func TestFeasCheckerToggleEquivalence(t *testing.T) {
	const seedsPerFamily = 6
	gaps := 0
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			slots := AllSlots(in)
			fc := fullChecker(in, slots)
			last := slots[len(slots)-1]
			outside := []core.Time{0, last + 1}
			for s, k := slots[0], 0; s < last; s++ {
				if slots[k] == s {
					k++
				} else {
					outside = append(outside, s)
				}
			}
			gaps += len(outside) - 2
			// state lists every edge's capacity and flow plus the checker's
			// totals and counters.
			ids := append([]flow.EdgeID[int64](nil), fc.jobEdges...)
			for _, s := range slots {
				ids = append(ids, fc.slotEdges[s])
			}
			for _, wins := range fc.jobWins {
				for _, w := range wins {
					ids = append(ids, w.id)
				}
			}
			state := func() []int64 {
				out := []int64{fc.flow, fc.total, int64(fc.augments), int64(fc.coldFlows), int64(fc.freeCloses)}
				for _, id := range ids {
					out = append(out, fc.net.Capacity(id), fc.net.Flow(id))
				}
				return out
			}
			slotOpen := make(map[core.Time]bool, len(slots))
			for _, s := range slots {
				slotOpen[s] = true
			}
			jobOn := make([]bool, len(in.Jobs))
			for i := range jobOn {
				jobOn[i] = true
			}
			rng := newRand(seed * 7731)
			for step := 0; step < 60; step++ {
				if len(in.Jobs) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(in.Jobs))
					jobOn[i] = !jobOn[i]
					fc.setJob(i, jobOn[i])
				} else {
					s := slots[rng.Intn(len(slots))]
					slotOpen[s] = !slotOpen[s]
					fc.setSlot(s, slotOpen[s])
				}
				s := outside[step%len(outside)]
				before := state()
				fc.setSlot(s, step%2 == 0)
				fc.setSlot(s, step%2 != 0)
				if !fc.trialCloseSlot(s) {
					t.Fatalf("%s seed %d step %d: trial close of out-of-window slot %d failed", fam.name, seed, step, s)
				}
				if !slices.Equal(before, state()) {
					t.Fatalf("%s seed %d step %d: toggling out-of-window slot %d changed the checker", fam.name, seed, step, s)
				}
				var jobs []core.Job
				for i, j := range in.Jobs {
					if jobOn[i] {
						jobs = append(jobs, j)
					}
				}
				var open []core.Time
				for _, s := range slots {
					if slotOpen[s] {
						open = append(open, s)
					}
				}
				var total int64
				for _, j := range jobs {
					total += j.Length
				}
				got, _ := feasibleFlow(in.G, jobs, open, false)
				if want, have := got == total, fc.feasible(); have != want {
					t.Fatalf("%s seed %d step %d: incremental feasible=%v, fresh flow says %v (%d jobs on, %d slots open)",
						fam.name, seed, step, have, want, len(jobs), len(open))
				}
			}
		}
	}
	if gaps == 0 {
		t.Error("no instance has a gap between windows; that out-of-window case went untested")
	}
}

// TestMinimalFeasibleStatsCounters pins the incremental-flow contract of
// the closing loop on every family: exactly one cold (from-zero) max flow
// per feasible run no matter how many slots are probed, every window slot
// probed exactly once, and a result that is verified feasible and minimal.
func TestMinimalFeasibleStatsCounters(t *testing.T) {
	const seedsPerFamily = 6
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			res, err := MinimalFeasibleStats(in, MinimalOptions{Strategy: CloseRightToLeft})
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			if res.ColdFlows != 1 {
				t.Errorf("%s seed %d: %d cold flows, want exactly 1", fam.name, seed, res.ColdFlows)
			}
			if want := len(AllSlots(in)); res.Probes != want {
				t.Errorf("%s seed %d: probed %d slots, want %d", fam.name, seed, res.Probes, want)
			}
			if res.FreeCloses > res.Probes {
				t.Errorf("%s seed %d: %d free closes exceed %d probes", fam.name, seed, res.FreeCloses, res.Probes)
			}
			if verr := core.VerifyActive(in, res.Schedule); verr != nil {
				t.Errorf("%s seed %d: minimal schedule invalid: %v", fam.name, seed, verr)
			}
			if !IsMinimalFeasible(in, res.Schedule.Open) {
				t.Errorf("%s seed %d: MinimalFeasibleStats output is not minimal", fam.name, seed)
			}
		}
	}
}

// TestSlotRepairerOrder pins the repair-candidate policy: rightmost
// window-covered slot first, already-open slots skipped, and exhaustion
// reported as an explicit error instead of the historical 0 sentinel
// (slot 0 is outside every window by validation, so the sentinel silently
// conflated "nothing to open" with a real slot).
func TestSlotRepairerOrder(t *testing.T) {
	in := &core.Instance{G: 2, Jobs: []core.Job{
		{ID: 0, Release: 2, Deadline: 5, Length: 1},
		{ID: 1, Release: 7, Deadline: 9, Length: 1},
	}}
	rep := newSlotRepairer(in)
	opened := map[core.Time]bool{8: true, 4: true}
	var got []core.Time
	for {
		s, err := rep.next(opened)
		if err != nil {
			break
		}
		got = append(got, s)
		opened[s] = true
	}
	want := []core.Time{9, 5, 3} // slots {3,4,5,8,9} descending, minus the pre-opened {8,4}
	if len(got) != len(want) {
		t.Fatalf("repairer handed out %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("repairer handed out %v, want %v", got, want)
		}
	}
	if _, err := rep.next(opened); err == nil {
		t.Error("exhausted repairer returned a slot instead of an error")
	}
}

// TestRoundingHybridCloseRepairFree pins the instances on which the
// historical due-jobs-only close rule produced integrally infeasible sweeps
// (hundreds of defensive repairs: the proxy mass of a certified close
// migrated past the deadlines of not-yet-due jobs sharing the closed slot,
// breaking their joint Hall condition on mass-bound-tight optimal
// vertices). The hybrid close rule — certify every close against the full
// hybrid solution — must round all of them repair-free under both
// factorization rules, whose different optimal vertices are what exposed
// the bug in the first place.
func TestRoundingHybridCloseRepairFree(t *testing.T) {
	cases := []struct {
		T    int
		seed int64
	}{{1024, 0}, {1024, 5}, {2048, 11}, {4096, 8}}
	for _, c := range cases {
		in := gen.LargeHorizon(gen.RandomConfig{N: c.T / 8, Horizon: c.T, MaxLen: 16, G: 4, Seed: c.seed})
		for _, rule := range []lp.FactorizationRule{lp.FactorizationFT, lp.FactorizationPFI} {
			lpres, err := SolveLPFactorization(in, rule)
			if err != nil {
				t.Fatalf("T=%d seed %d %v: SolveLP: %v", c.T, c.seed, rule, err)
			}
			res, err := roundWithLP(in, lpres)
			if err != nil {
				t.Fatalf("T=%d seed %d %v: round: %v", c.T, c.seed, rule, err)
			}
			if res.Repairs != 0 {
				t.Errorf("T=%d seed %d %v: %d defensive repairs, want 0", c.T, c.seed, rule, res.Repairs)
			}
			if verr := core.VerifyActive(in, res.Schedule); verr != nil {
				t.Errorf("T=%d seed %d %v: rounded schedule invalid: %v", c.T, c.seed, rule, verr)
			}
			if float64(res.Opened) > 2*res.LPValue+1e-6 {
				t.Errorf("T=%d seed %d %v: opened %d > 2·LP = %.6f", c.T, c.seed, rule, res.Opened, 2*res.LPValue)
			}
			if res.ColdFlows > 1 {
				t.Errorf("T=%d seed %d %v: %d cold flows, incremental contract allows 1", c.T, c.seed, rule, res.ColdFlows)
			}
		}
	}
}

// enduranceRoundingFamilies are the two stress families of the ISSUE 7
// scaling gates: the canonical large-horizon family (wide flexible windows,
// n = T/8) and a laminar tree whose rigid full-window jobs keep nearly every
// slot saturated — the worst case for the flow-carrying closing loop, since
// almost no trial close is free.
func enduranceRoundingFamilies(T int) []struct {
	name string
	in   *core.Instance
} {
	laminarN := T / 4
	if laminarN > 48 {
		laminarN = 48 // one depth-5 laminar tree ~saturates g·T; a second root job overflows
	}
	return []struct {
		name string
		in   *core.Instance
	}{
		{"scaling", gen.LargeHorizon(*scalingInstance(T, 8))},
		{"laminar", gen.RandomLaminar(gen.RandomConfig{N: laminarN, Horizon: T, G: 6, Seed: 5})},
	}
}

// runRoundingEndurance is the shared body of the rounding/minimal-feasible
// scaling gates (satellite 4 of ISSUE 7): at horizon T, on both endurance
// families, RoundLP must meet the Theorem 2 bound with zero defensive
// repairs, an intact charging invariant, no dropped proxy mass and at most
// one cold flow; MinimalFeasibleStats must likewise run on a single carried
// flow. All gated quantities are deterministic counters, not wall times.
func runRoundingEndurance(t *testing.T, T int) {
	for _, fam := range enduranceRoundingFamilies(T) {
		start := time.Now()
		res, err := RoundLP(fam.in)
		if err != nil {
			t.Fatalf("%s T=%d: RoundLP: %v", fam.name, T, err)
		}
		if verr := core.VerifyActive(fam.in, res.Schedule); verr != nil {
			t.Fatalf("%s T=%d: rounded schedule invalid: %v", fam.name, T, verr)
		}
		if float64(res.Opened) > 2*res.LPValue+1e-6 {
			t.Errorf("%s T=%d: opened %d > 2·LP = %.6f", fam.name, T, res.Opened, 2*res.LPValue)
		}
		if res.InvariantViolated {
			t.Errorf("%s T=%d: 2·LP charging invariant violated", fam.name, T)
		}
		if res.Repairs != 0 {
			t.Errorf("%s T=%d: %d defensive repairs, want 0 (tolerance drift?)", fam.name, T, res.Repairs)
		}
		if res.ColdFlows > 1 {
			t.Errorf("%s T=%d: rounding ran %d cold flows, incremental contract allows 1", fam.name, T, res.ColdFlows)
		}
		if res.DroppedMass > 1e-3 {
			t.Errorf("%s T=%d: %.6f proxy mass dropped uncharged", fam.name, T, res.DroppedMass)
		}
		minres, err := MinimalFeasibleStats(fam.in, MinimalOptions{Strategy: CloseRightToLeft})
		if err != nil {
			t.Fatalf("%s T=%d: MinimalFeasibleStats: %v", fam.name, T, err)
		}
		if minres.ColdFlows > 1 {
			t.Errorf("%s T=%d: minimal-feasible ran %d cold flows, incremental contract allows 1",
				fam.name, T, minres.ColdFlows)
		}
		if verr := core.VerifyActive(fam.in, minres.Schedule); verr != nil {
			t.Fatalf("%s T=%d: minimal schedule invalid: %v", fam.name, T, verr)
		}
		if lb := res.LPValue; float64(minres.Schedule.Cost()) > 3*lb+1e-6 {
			// Minimal feasible is 3·OPT >= 3·LP only when LP is tight; a trip
			// here means either bound broke, so it is worth failing loudly.
			t.Errorf("%s T=%d: minimal cost %d > 3·LP = %.6f", fam.name, T, minres.Schedule.Cost(), 3*lb)
		}
		t.Logf("%s T=%d: LP=%.3f opened=%d minimal=%d probes=%d free=%d augments=%d cold=%d+%d in %v",
			fam.name, T, res.LPValue, res.Opened, minres.Schedule.Cost(),
			minres.Probes, minres.FreeCloses, minres.FlowAugments, res.ColdFlows, minres.ColdFlows,
			time.Since(start).Round(time.Millisecond))
	}
}

// TestRoundingHorizon8k gates the rounding/minimal-feasible pipeline at
// T = 8192 on both endurance families. Skips in -short and under the
// default go test deadline like the LP endurance tests.
func TestRoundingHorizon8k(t *testing.T) {
	skipUnlessEndurance(t, 10*time.Minute)
	runRoundingEndurance(t, 8192)
}

// TestRoundingHorizon16k is the headline scaling gate of ISSUE 7: RoundLP
// and MinimalFeasible complete at T = 16384 canonical density inside the CI
// scaling budget with zero repairs, an intact invariant and single-digit
// flow effort — gated on the cold-flow counter, not wall time.
func TestRoundingHorizon16k(t *testing.T) {
	if raceEnabled {
		t.Skip("minutes-long run; the race build exercises the 8k gate instead")
	}
	skipUnlessEndurance(t, 20*time.Minute)
	runRoundingEndurance(t, 16384)
}

// TestTheorem1CertificateAtScale exercises the full certificate pipeline —
// Lemma 1 transform plus Lemma 2 witness extraction — on MinimalFeasible
// output at T = 4096, the scale at which the historical per-probe rescans
// made the transform quadratic. The certificate's own check() validates the
// structural properties; here we additionally pin the Theorem 1 arithmetic
// on the transformed schedule.
func TestTheorem1CertificateAtScale(t *testing.T) {
	skipUnlessEndurance(t, 8*time.Minute)
	const T = 4096
	in := gen.LargeHorizon(*scalingInstance(T, 8))
	sched, err := MinimalFeasible(in, MinimalOptions{Strategy: CloseRightToLeft})
	if err != nil {
		t.Fatalf("MinimalFeasible at T=%d: %v", T, err)
	}
	start := time.Now()
	cert, err := BuildTheorem1Certificate(in, sched)
	if err != nil {
		t.Fatalf("BuildTheorem1Certificate at T=%d: %v", T, err)
	}
	if got, want := len(cert.FullSlots)+len(cert.NonFullSlots), len(sched.Open); got != want {
		t.Errorf("certificate partitions %d slots, schedule opens %d", got, want)
	}
	if bound := cert.MassBound + cert.WitnessMass; core.Time(len(sched.Open)) > bound {
		t.Errorf("certificate bound broken: %d open slots > mass %d + witness %d",
			len(sched.Open), cert.MassBound, cert.WitnessMass)
	}
	j1, j2 := cert.TwoTrackSplit()
	if len(j1)+len(j2) != len(cert.Witness) {
		t.Errorf("two-track split loses witness jobs: %d + %d != %d", len(j1), len(j2), len(cert.Witness))
	}
	t.Logf("T=%d: |open|=%d full=%d nonfull=%d witness=%d massBound=%d witnessMass=%d in %v",
		T, len(sched.Open), len(cert.FullSlots), len(cert.NonFullSlots), len(cert.Witness),
		cert.MassBound, cert.WitnessMass, time.Since(start).Round(time.Millisecond))
}
