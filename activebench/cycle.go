package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/activetime"
	"repro/internal/core"
	"repro/internal/gen"
)

// instances returns the run's first k distinct inputs: gen.LargeHorizon at
// horizon T with n = T/8 jobs, g = 4 and lengths up to 16, instance i
// seeded with 1000·seed + i.
func instances(cfg config, k int) []*core.Instance {
	out := make([]*core.Instance, k)
	for i := range out {
		out[i] = largeHorizon(cfg.T, cfg.Seed*1000+int64(i))
	}
	return out
}

func largeHorizon(T int, seed int64) *core.Instance {
	return gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: seed})
}

// warmupSeed seeds the instance the offline-round and minimal-flow set-ups
// warm up on. It is fixed, so setup_s does not depend on how hard the
// workload seed's instances happen to be.
const warmupSeed = -1

// opFunc runs one op on one instance, with child spans under parent, and
// returns the op's work signature — the deterministic counters it produced
// — and its realized approximation ratio, or the check it failed.
type opFunc func(in *core.Instance, tr *tracer, op, parent int) (sig string, ratio float64, err error)

// cycler is one caller in a closed loop over the run's distinct instances:
// the offline-round and minimal-flow workloads.
type cycler struct {
	cfg config
	op  opFunc
	// post runs after the window and returns more digest lines.
	post   func(ins []*core.Instance, tl *tally) []string
	ins    []*core.Instance
	first  []string // work signature of each instance's first op
	ratios float64  // sum of the successful ops' approximation ratios
	okOps  int
}

func (c *cycler) setup() error {
	c.ins = instances(c.cfg, c.cfg.Instances)
	c.first = make([]string, len(c.ins))
	c.ratios, c.okOps = 0, 0
	_, _, err := c.op(largeHorizon(c.cfg.T, warmupSeed), nil, -1, -1)
	return err
}

// measure cycles through the instances; a traced run traces every other
// cycle, so that each instance runs both ways once the window spans two.
func (c *cycler) measure(d time.Duration, tr *tracer, tl *tally) *window {
	n := len(c.ins)
	w := &window{}
	start := time.Now()
	for op := 0; time.Since(start) < d; op++ {
		t := tr
		if op/n%2 == 1 {
			t = nil
		}
		t0 := time.Now()
		r, err := c.do(op%n, t, op)
		w.add(millis(time.Since(t0)), time.Since(start), op%n, t != nil)
		tl.note(err)
		if err == nil {
			c.ratios += r
			c.okOps++
		}
	}
	return w
}

// do runs the op on instance i and checks that it repeats the work of the
// instance's first op.
func (c *cycler) do(i int, tr *tracer, op int) (float64, error) {
	root := tr.begin("op."+c.cfg.Workload, -1, op)
	sig, r, err := c.op(c.ins[i], tr, op, root)
	tr.end(root)
	switch {
	case err != nil:
		return 0, fmt.Errorf("%s, instance %d: %w", c.cfg.Workload, i, err)
	case c.first[i] == "":
		c.first[i] = sig
	case sig != c.first[i]:
		return 0, fmt.Errorf("%s, instance %d: did %s after %s", c.cfg.Workload, i, sig, c.first[i])
	}
	return r, nil
}

func (c *cycler) peakRSS() (float64, error) { return vmHWM("self") }

// finish digests the work of the first Counted instances, running, untimed,
// the op of any the window did not reach.
func (c *cycler) finish(tl *tally) (float64, []string, error) {
	n := min(c.cfg.Counted, len(c.ins))
	lines := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		if c.first[i] == "" {
			_, err := c.do(i, nil, -1)
			tl.note(err)
		}
		lines = append(lines, fmt.Sprintf("instance %d: %s", i, c.first[i]))
	}
	if c.post != nil {
		lines = append(lines, c.post(c.ins[:n], tl)...)
	}
	return ratio(c.ratios, float64(c.okOps)), lines, nil
}

func (c *cycler) close() {}

// offlineOp is one offline-round op: the Theorem 2 LP rounding, then the
// schedule's verification and the rounding's guarantees.
func offlineOp(in *core.Instance, tr *tracer, op, parent int) (string, float64, error) {
	var res *activetime.RoundingResult
	var err error
	tr.timed("activetime.RoundLP", parent, op, func() { res, err = activetime.RoundLP(in) })
	if err != nil {
		return "", 0, err
	}
	tr.timed("core.VerifyActive", parent, op, func() { err = core.VerifyActive(in, res.Schedule) })
	if err == nil {
		err = checkRounding(res)
	}
	if err != nil {
		return "", 0, err
	}
	sig := fmt.Sprintf("opened=%d lp=%x flowchecks=%d carries=%d coldflows=%d",
		res.Opened, math.Float64bits(res.LPValue), res.FlowChecks, res.ProxyCarries, res.ColdFlows)
	return sig, float64(res.Opened) / res.LPValue, nil
}

// checkRounding holds a rounding to Theorem 2 (at most 2·LP slots open) and
// to the guarantees RoundingResult documents: no repairs, at most one
// from-zero max flow, the charging invariant intact.
func checkRounding(res *activetime.RoundingResult) error {
	switch {
	case float64(res.Opened) > 2*res.LPValue+1e-6:
		return fmt.Errorf("opened %d slots, above 2·LP = %.6f", res.Opened, 2*res.LPValue)
	case res.Repairs != 0:
		return fmt.Errorf("rounding needed %d repairs, want 0", res.Repairs)
	case res.ColdFlows > 1:
		return fmt.Errorf("rounding ran %d cold max flows, want at most 1", res.ColdFlows)
	case res.InvariantViolated:
		return errors.New("rounding broke its 2·LP charging invariant")
	}
	return nil
}

// lpCounters solves LP1 once per distinct instance, untimed, for the digest
// lines RoundLP cannot give: RoundingResult does not carry the LP's pivots
// and cuts.
func lpCounters(ins []*core.Instance, tl *tally) []string {
	lines := make([]string, 0, len(ins))
	for i, in := range ins {
		res, err := activetime.SolveLP(in)
		if err == nil {
			err = expect(res.ColdFallbacks == 0, "instance %d: SolveLP took %d warm-start fallbacks", i, res.ColdFallbacks)
			lines = append(lines, fmt.Sprintf("lp %d: objective=%x pivots=%d cuts=%d rounds=%d refactors=%d purged=%d",
				i, math.Float64bits(res.Objective), res.Pivots, res.Cuts, res.Rounds, res.Refactors, res.Purged))
		}
		tl.note(err)
	}
	return lines
}

// minimalOp is one minimal-flow op: a right-to-left minimal feasible
// schedule, its Theorem 1 certificate, which verifies the schedule first,
// and the 3·LB bound the certificate proves.
func minimalOp(in *core.Instance, tr *tracer, op, parent int) (string, float64, error) {
	var mr *activetime.MinimalResult
	var cert *activetime.Theorem1Certificate
	var err error
	tr.timed("activetime.MinimalFeasibleStats", parent, op, func() {
		mr, err = activetime.MinimalFeasibleStats(in, activetime.MinimalOptions{Strategy: activetime.CloseRightToLeft})
	})
	if err != nil {
		return "", 0, err
	}
	cost := mr.Schedule.Cost()
	tr.timed("activetime.BuildTheorem1Certificate", parent, op, func() {
		cert, err = activetime.BuildTheorem1Certificate(in, mr.Schedule)
	})
	if err != nil {
		return "", 0, err
	}
	// OPT is at least the mass bound, and at least half the witness mass:
	// the witness splits into two sets of disjoint windows, each of mass at
	// most OPT.
	lb := max(cert.MassBound, (cert.WitnessMass+1)/2)
	switch {
	case cost > 3*lb:
		return "", 0, fmt.Errorf("minimal schedule opens %d slots, above 3·LB = %d", cost, 3*lb)
	case mr.ColdFlows > 1:
		return "", 0, fmt.Errorf("closing loop ran %d cold max flows, want at most 1", mr.ColdFlows)
	}
	sig := fmt.Sprintf("cost=%d probes=%d free=%d augments=%d coldflows=%d mass=%d witness=%d/%d",
		cost, mr.Probes, mr.FreeCloses, mr.FlowAugments, mr.ColdFlows, cert.MassBound, len(cert.Witness), cert.WitnessMass)
	return sig, float64(cost) / float64(lb), nil
}
