// Package repro is a from-scratch Go reproduction of
//
//	Jessica Chang, Samir Khuller, Koyel Mukherjee:
//	"LP Rounding and Combinatorial Algorithms for Minimizing Active and
//	Busy Time", SPAA 2014 (full version arXiv:1610.08154).
//
// It implements every algorithm of the paper, the substrates they need
// (max flow, a simplex LP solver, span minimization, exact baselines), the
// gadget families behind the paper's figures, and an experiment harness
// that re-measures each claim. This comment maps the packages; each
// package comment holds the contracts in full.
//
// # Packages
//
// Each package owns one responsibility and the invariant that goes with it:
//
//   - internal/core: jobs, instances and the three schedule models, with
//     the verifiers (VerifyActive and friends). A schedule counts as
//     correct only when a core verifier accepts it.
//   - internal/flow: Dinic max flow, generic over int64 and float64
//     capacities. Networks are built once, with their full topology, and
//     re-solved; re-capacitation with SetCapacityKeepFlow/PushBack keeps a
//     valid flow, so a re-solve augments only the difference and routes the
//     same flow as a cold one.
//     MaxFrom is such a re-solve for a caller that lists the source arcs
//     that may still carry flow; its phases walk only those, not all of
//     the source's arcs, and route the same flow on every edge.
//   - internal/lp: a sparse dual simplex for covering LPs (costs ≥ 0, rows
//     a·x ≥ b with a, b ≥ 0; anything else is an error), with a sparse LU
//     and Forrest–Tomlin updates, hypersparse FTRAN/BTRAN, dual
//     steepest-edge pricing, warm re-solves and in-place row removal; and
//     a general exact engine over big.Rat, the float engine's oracle.
//     Every float optimum is verified against the caller's rows, a warm
//     re-solve that abandons its basis is counted in
//     Solution.ColdFallbacks, and the dense and hypersparse kernels perform
//     identical float operations, so the kernel choice never changes a
//     pivot.
//   - internal/activetime: Sections 2–3 of the paper. SolveLP solves LP1
//     by Benders cut generation over the feasibility network Gfeas;
//     RoundLP is the Theorem 2 rounding; MinimalFeasible and its Theorem 1
//     certificate; Session keeps a solved LP1's master basis and cuts as
//     jobs arrive and depart. Exact engines (SolveLPExact, SolveExact, SolveUnitExact)
//     are the oracles the float pipeline is tested against.
//   - internal/busytime and internal/intervals: Section 4 and the
//     appendices (GreedyTracking, PairCover, FirstFit, the preemptive
//     algorithms, span minimization) and the interval geometry they share.
//   - internal/gen: the paper's gadgets, with their claimed optima, and the
//     seeded random families every test and experiment draws from.
//   - internal/experiments and cmd/paperbench: the experiments E1–E20 (the
//     index is experiments.All) and the runner that prints them and keeps
//     BENCH_TRAJECTORY.json.
//   - cmd/activesim, cmd/busysim, cmd/instgen and internal/render: command
//     lines that generate, solve, verify and draw single instances.
//   - cmd/activeserve: an HTTP server over per-tenant Sessions with
//     batched re-solves, a result cache and typed errors.
//   - activebench (its own module): the end-to-end benchmark.
//
// # From instance to verified schedule
//
// An active-time instance goes through four stages:
//
//  1. SolveLP builds a master LP with one column Y_I per elementary
//     interval I (described below), bounded by |I|, and one covering cut
//     per job. Every cut of LP1 has one coefficient on all the slots of an
//     interval, so this master has LP1's optimal value. Each round
//     separates in-out: one max flow of Gfeas on the same intervals, with
//     capacities Y_I, at a probe between the master optimum Y* and a center
//     that LP1 admits (every interval at its bound, every slot open, at
//     first) either meets the demand or yields violated cuts
//     Σ_I min(g, cov_A(I))·Y_I ≥ P(A), which are appended and re-solved
//     warm. A probe that yields no new cut becomes the center if it met the
//     demand, and the round then separates at Y* itself; the loop ends when
//     that finds no new cut either. Persistently slack cuts are purged. The
//     result is the LP1 optimum, a lower bound on OPT, with each Y_I spread
//     over its interval's slots right-filled.
//  2. RoundLP right-shifts that optimum within each deadline segment
//     (Lemma 3).
//  3. It then rounds deadline by deadline. A barely open slot is closed only
//     when a max flow certifies that the hybrid vector (the integral
//     decisions so far plus the fractional future) still completes every
//     job, which keeps the opened set feasible by induction and within
//     2·LP.
//  4. Assign builds the interval checker described below over the opened
//     slots and runs its one integral max flow, the only one that starts
//     from zero: it both checks them and is dealt out into the schedule.
//     An opened set that fails the check returns ErrRoundingInfeasible and
//     is never patched.
//
// MinimalFeasible (Theorem 1, ≤ 3·OPT) closes slots one at a time on a
// flow-carrying checker, so a full sweep runs exactly one max flow from
// zero. The checker gives one node to each elementary interval, a run of
// slots that lie in the same job windows, with capacities scaled by the
// interval's open-slot count; its verdicts equal the per-slot network's.
// A close that the interval's routed flow already fits needs no flow, and
// once a close in an interval fails, the sweep keeps that interval's other
// slots open without one. Any other close cancels the excess units and
// reroutes them with MaxFrom, starting from the jobs it cancelled them on
// rather than from every supply arc. The per-slot schedule is dealt
// round-robin out of the interval flow the sweep ends with, so the one max
// flow includes it. BuildTheorem1Certificate then replays Lemmas 1–2 of
// the proof on that schedule, over slices indexed by slot and by job
// position. This checker is the only integral Gfeas network: CheckFeasible
// and Assign run one solve on a new one, and the exact search toggles one
// along its DFS. The LP's float separator is the other Gfeas network. It
// has the checker's nodes, but each interval carries the master's Y_I
// rather than an open-slot count; its max flow and minimum cuts equal the
// per-slot network's for any y that sums to Y_I over each interval. Its
// intervals are the master's columns, which a Session's arrivals split in
// place where a new window bound falls inside one. It carries its flow
// from one load to the next on the solve's own goroutine.
//
// # Where the gates live
//
//   - Package tests: the exact engines agree with the float pipeline
//     (TestLPCrossSolverMetamorphic); dense and hypersparse kernels walk
//     the same pivots (TestKernelPathEquivalence); every rounded or minimal
//     schedule passes VerifyActive within the paper's bounds; Session
//     re-solves match cold solves to 1e-6 (FuzzInstanceDelta). The
//     minutes-long endurance tests at T = 16384 and 32768 skip unless
//     -timeout leaves room.
//   - paperbench -merge-bench: absolute gates on the E19/E20 digests
//     (rounded/LP ≤ 2, minimal/OPT ≤ 3, at most one cold flow per solve,
//     zero warm-start fallbacks), and non-regression against the last
//     trajectory entry. An experiment may drop a column only by declaring
//     it in experiments.Table.Retired.
//   - activebench: a work digest per seed that changes only when the work
//     does, and the end-to-end metrics that BENCHMARK.json bounds.
//   - CI (.github/workflows/ci.yml): gofmt, vet, the race detector, fuzz
//     smoke, bench smoke, the endurance run and the trajectory merge.
//
// Three algorithms the paper cites but does not spell out are substituted,
// each documented and tested where it is implemented:
//
//  1. activetime.SolveUnitExact, for the exact unit-job algorithm of
//     Chang, Gabow and Khuller: interval multicover solved as a
//     difference-constraint system;
//  2. busytime.HeuristicSpan, a local-search span minimizer for large
//     flexible instances, checked against busytime.ExactSpan on small
//     ones;
//  3. busytime.PairCover, a reconstruction of the Alicherry–Bhatia and
//     Kumar–Rudra interval 2-approximations sketched in the paper's
//     Appendix A.
package repro
