package activetime

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lp"
)

// SessionStats counts a session's lifetime delta activity. Every escape
// hatch the delta machinery can take is a counter here — a session that
// quietly re-solved everything from scratch would defeat its purpose, so
// the fallbacks are loud and the scaling gates pin the warm ones at zero.
type SessionStats struct {
	// Solves counts Solve calls that ran the cut loop (cache hits on an
	// already-solved session are not counted); AddCalls and RemoveCalls the
	// successful instance mutations.
	Solves, AddCalls, RemoveCalls int
	// DeltaPivots is the simplex pivot total across every re-solve after
	// the first — the effort figure the delta-vs-cold experiments compare
	// against a cold solve of the same mutated instance.
	DeltaPivots int
	// ColdRebuilds counts RemoveJobs calls that could not excise the dead
	// rows from the live basis (a departed job's row was tight, or the
	// basis was out of sync with unsolved structural edits). Those calls
	// remove the rows from the master alone and drop the basis, so the
	// next Solve starts cold, surrendering the warm start.
	ColdRebuilds int
	// ColdFallbacks sums the lp-level warm-basis abandonments
	// (lp.Solution.ColdFallbacks) across all of the session's solves.
	ColdFallbacks int
}

// Session is a live active-time LP instance that absorbs job arrivals and
// departures between solves without re-solving from scratch. It owns a
// master problem whose basis survives mutations, the cut registry that
// mirrors the master's row order (which job or cut each row is; the rows
// themselves live only in the master), and a separation network. The
// network is rebuilt after each delta, since an arrival can add jobs and
// split atoms; its first load is one max flow from zero. The master's warm
// re-solve, where a delta's pivots are spent, is what makes a re-solve
// after a delta pay for the delta, not for the instance.
//
// The master has one column per atom (see newMaster): a run of slots that
// every job window either contains or misses. A new session's atoms are
// the instance's elementary intervals. atomCol maps each slot to its atom's
// column; an atom is a maximal run of one column. An arrival whose window
// bound falls inside an atom splits it in place (lp.Problem.SplitColumn):
// the atom's column keeps its first part and bound, and a new column takes
// the rest, with the column's coefficient in every row, so the live basis
// stays dual feasible and the re-solve stays warm. Slots no window ever
// covered get a column only when an arrival first covers them, appended
// like any new column (priced into the live basis by the engine's column
// splice). Departures never merge atoms: an atom no surviving window
// covers keeps its column, which no surviving row references, so it rests
// at zero and the objective equals a cold solve of the mutated instance —
// the delta-vs-cold metamorphic suite asserts exactly that, to 1e-6, on
// every generator family.
//
// AddJobs also appends the arrivals' seed covering rows; RemoveJobs drops
// the departed jobs' rows from the live basis when they are slack, and when
// one is tight edits the master in place and drops the basis, so the next
// Solve starts cold (counted in ColdRebuilds).
//
// Sessions are not safe for concurrent use; the solve server serializes
// access per tenant.
type Session struct {
	in      *core.Instance // owned deep copy; mutated by deltas
	prob    *lp.Problem    // one column per atom ever laid out
	atomCol []int32        // index t: the column of slot t's atom, -1 for a slot no window ever covered
	basis   *lp.Basis
	sep     *separator
	reg     *cutRegistry
	opts    lpOptions
	posByID map[int]int // job ID → current position in in.Jobs
	solved  bool        // last is current for the present instance
	last    *LPResult
	stats   SessionStats
}

// NewSession validates the instance and builds a live session around a deep
// copy of it (later mutations never touch the caller's value). No solve is
// performed; the first Solve runs the cold Benders loop. Returns
// ErrInfeasible if some job cannot meet its deadline even with every slot
// open.
func NewSession(in *core.Instance) (*Session, error) {
	return newSession(in, lpOptions{purge: true})
}

func newSession(in *core.Instance, opts lpOptions) (*Session, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	own := in.Clone()
	sep := newSeparator(own)
	if !sep.feasibleAllOpen() {
		return nil, ErrInfeasible
	}
	prob, err := newMaster(sep)
	if err != nil {
		return nil, err
	}
	prob.SetDenseKernels(opts.denseKernels)
	prob.SetPivotHook(opts.pivotHook)
	s := &Session{
		in:      own,
		prob:    prob,
		atomCol: sep.slotIval,
		sep:     sep,
		opts:    opts,
		posByID: make(map[int]int, len(own.Jobs)),
	}
	s.reg = newCutRegistry(prob.NumConstraints())
	for i, j := range own.Jobs {
		s.posByID[j.ID] = i
	}
	return s, nil
}

// Stats returns the session's lifetime delta counters.
func (s *Session) Stats() SessionStats { return s.stats }

// NumJobs returns the current job count.
func (s *Session) NumJobs() int { return len(s.in.Jobs) }

// Instance returns a deep copy of the session's current instance.
func (s *Session) Instance() *core.Instance { return s.in.Clone() }

// Fingerprint digests the session's current instance — G plus every job's
// ID, window and length — into 128 bits, order-independently: two sessions
// holding the same job multiset fingerprint equal no matter which mutation
// sequences produced them. The solve server keys its result cache on it.
func (s *Session) Fingerprint() [2]uint64 {
	const phi = 0x9e3779b97f4a7c15
	jobHash := func(j core.Job, seed uint64) uint64 {
		h := seed
		for _, v := range [...]uint64{uint64(j.ID), uint64(j.Release), uint64(j.Deadline), uint64(j.Length)} {
			for b := 0; b < 64; b += 8 {
				h ^= (v >> b) & 0xff
				h *= fnvPrime
			}
		}
		return h
	}
	var sum, xor uint64
	for _, j := range s.in.Jobs {
		sum += jobHash(j, fnvOffset)
		xor ^= jobHash(j, phi)
	}
	g := uint64(s.in.G)
	return [2]uint64{sum ^ (g * fnvPrime), xor + g*phi}
}

// probeWeight places each round's probe on the segment from the solve's
// center to the master optimum: probe = probeWeight·y* + (1−probeWeight)·ŷ.
// On 32 T = 2048 inputs of the end-to-end benchmark's family, every weight
// in [0.5, 0.98] spent fewer pivots than separating at y* alone: 305 down
// to 210 per instance against 429. 0.9 spent the fewest, with 0.8 and 0.95
// at 250 and 226, so it sits on a broad plateau, not a knife-edge.
const probeWeight = 0.9

// Solve runs the Benders cut loop to optimality from the session's current
// state. The first call on a fresh session is the cold solve (identical to
// SolveLP); calls after AddJobs/RemoveJobs warm-start from the surviving
// basis and cuts, typically paying a small fraction of the cold pivot
// count. Calling Solve again without an intervening mutation returns the
// cached result.
//
// Each round separates by in-out separation (Ben-Ameur and Neto, Networks
// 2007) rather than at the master's vertex optimum y* alone. The solve
// keeps a center ŷ that LP1 admits, starting at every atom at its bound,
// that is every slot open (every session instance fits with all slots
// open), and first separates at the probe between y* and ŷ. A cut's slack
// f_A(Y) = Σ_I min(g, cov_A(I))·Y_I − P(A) is affine in Y and f_A(ŷ) ≥ 0,
// so a cut violated at the probe is violated at y* by at least as much:
// the probe's cuts are deeper, pointing at the middle of the feasible
// region instead of at the vertex the master happens to sit on, and the
// master needs fewer rounds and far fewer pivots to settle. Only when the
// probe yields no new cut does the round separate at y* exactly as a
// Kelley loop would, so the convergence test and its tolerances are those
// of separating at y* alone; if the probe's flow met the demand, the probe
// is feasible and becomes the center first, which pulls later probes
// toward the optimum face.
func (s *Session) Solve() (*LPResult, error) {
	if s.solved {
		return s.last, nil
	}
	T := int(s.in.Horizon())
	batchCap := s.opts.batchCap
	if batchCap == 0 {
		batchCap = adaptiveBatchCap(s.in)
	}
	delta := s.stats.Solves > 0
	s.stats.Solves++
	res := &LPResult{Cuts: len(s.reg.rows)}
	center := make([]float64, s.prob.NumVars())
	for j := range center {
		center[j] = s.prob.Upper(j)
	}
	probe := make([]float64, len(center))
	maxRounds := 20*T + 200
	for round := 0; round < maxRounds; round++ {
		res.Rounds++
		warm := s.basis != nil
		sol, nextBasis, err := s.prob.ResolveFrom(s.basis)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("activetime: LP master %v", sol.Status)
		}
		s.basis = nextBasis
		res.Pivots += sol.Iterations
		if warm {
			res.MaxWarmPivots = max(res.MaxWarmPivots, sol.Iterations)
		}
		res.Refactors += sol.Refactors
		res.Kernel.Accumulate(sol.Kernel)
		if sol.ColdFallbacks > 0 {
			res.ColdFallbacks += sol.ColdFallbacks
			res.FallbackVerdicts = append(res.FallbackVerdicts, sol.FallbackVerdict)
		}
		y := sol.X
		if s.opts.purge {
			s.reg.observeX(s.prob, y)
			res.Purged += s.reg.purge(s.prob, s.basis)
		}
		added, err := s.separateInOut(y, center, probe, batchCap)
		if err != nil {
			return nil, err
		}
		if added == 0 {
			// Converged: either separation at y* found no violated set, or
			// every set it surfaced is already in the master and satisfied
			// within the solver's tolerance (the separator's 1e-6 flow
			// slack and the master's 1e-6 row tolerance meet here). The
			// columns of atoms no window covers any more appear in no row
			// and rest at zero, so the objective is the mutated instance's
			// own.
			res.Y = s.sep.slotValues(y)
			res.Objective = sol.Objective
			if delta {
				s.stats.DeltaPivots += res.Pivots
			}
			s.stats.ColdFallbacks += res.ColdFallbacks
			s.solved = true
			s.last = res
			return res, nil
		}
		res.Cuts += added
	}
	return nil, fmt.Errorf("activetime: LP cut generation did not converge in %d rounds", maxRounds)
}

// separateInOut runs one round's separation for the master optimum y: at
// the probe between y and the center first (probe is its scratch), and at
// y itself only when the probe appends no new cut. A probe whose flow met
// the demand becomes the center before y is separated; one that surfaced
// only sets the master already holds is infeasible and leaves the center
// where it was. It returns how many cuts the round appended; zero means
// separation at y found nothing new.
func (s *Session) separateInOut(y, center, probe []float64, batchCap int) (int, error) {
	for t, v := range y {
		probe[t] = probeWeight*v + (1-probeWeight)*center[t]
	}
	sets := s.sep.separateAll(probe, batchCap)
	if sets == nil {
		copy(center, probe)
	}
	if added, err := s.addCuts(y, probe, center, sets); added > 0 || err != nil {
		return added, err
	}
	return s.addCuts(y, y, center, s.sep.separateAll(y, batchCap))
}

// addCuts appends to the master the cut of every job set in sets, the
// separation of point at, that the master lacks, and returns how many it
// appended. It compacts sets in place to the appended ones and reports
// them to the options' sepHook, with y the round's master optimum and
// center the solve's center after the separation.
func (s *Session) addCuts(y, at, center []float64, sets [][]bool) (int, error) {
	added := 0
	for _, A := range sets {
		if s.reg.inMaster(A) {
			continue
		}
		cols, vals, rhs := s.sep.cutFor(A)
		if err := s.prob.AddSparse(cols, vals, lp.GE, rhs); err != nil {
			return 0, err
		}
		s.reg.add(A)
		sets[added] = A
		added++
	}
	if s.opts.sepHook != nil {
		s.opts.sepHook(y, at, center, sets[:added])
	}
	return added, nil
}

// AddJobs splices new jobs into the live session. It lays out the atoms
// of the grown instance (arriveAtoms) and builds their separator, which
// checks that the grown instance fits with every slot open, before it
// touches the master, so on a validation or feasibility error
// (ErrInfeasible) the session is unchanged. The master then splits every
// atom an arriving window bound falls inside, gains a column for each atom
// of slots no window covered before, and gains one seed covering row per
// job; the registry mirrors the appended rows, and the new separator
// replaces the old one.
func (s *Session) AddJobs(jobs []core.Job) error {
	if len(jobs) == 0 {
		return nil
	}
	prosp := s.in.Clone()
	prosp.Jobs = append(prosp.Jobs, jobs...)
	if err := prosp.Validate(); err != nil {
		return err
	}
	atomCol, grow := arriveAtoms(s.atomCol, jobs, s.prob.NumVars())
	sep := newAtomSeparator(prosp, atomCol)
	if !sep.feasibleAllOpen() {
		return ErrInfeasible
	}
	for _, op := range grow {
		if op.from >= 0 {
			if _, err := s.prob.SplitColumn(int(op.from), op.bound); err != nil {
				return fmt.Errorf("activetime: AddJobs split: %w", err)
			}
			continue
		}
		j := s.prob.AddColumns(1)
		s.prob.SetObjective(j, 1)
		s.prob.SetUpper(j, op.bound)
	}
	for pos := len(s.in.Jobs); pos < len(prosp.Jobs); pos++ {
		if err := sep.addSeedCut(s.prob, pos); err != nil {
			return fmt.Errorf("activetime: AddJobs seed row: %w", err)
		}
		s.reg.addSeedRow(pos)
		s.posByID[prosp.Jobs[pos].ID] = pos
	}
	s.in, s.atomCol, s.sep = prosp, atomCol, sep
	s.stats.AddCalls++
	s.solved = false
	return nil
}

// atomOp is one master column an arrival creates, in column order: for
// from >= 0, the split of column from, which keeps the bound bound; for
// from < 0, a new atom with the bound bound.
type atomOp struct {
	from  int32
	bound float64
}

// arriveAtoms lays out the atoms after jobs arrive, given the atoms before
// (atomCol, see Session) and the master's column count next. Every window
// bound of the arrivals that falls inside an atom splits it: walking the
// atom's slots in order, the column keeps the part before the bound and a
// new column takes the rest, which a later bound may split again. Each run
// of slots that no window covered before and no arriving bound cuts
// becomes a new atom. It returns the new slot-to-column map and the
// columns to create, numbered from next in their order.
func arriveAtoms(atomCol []int32, jobs []core.Job, next int) ([]int32, []atomOp) {
	covered := windowSlots(jobs)
	out := make([]int32, max(len(atomCol), len(covered)))
	cut := make([]bool, len(out)+1)
	for _, j := range jobs {
		cut[j.FirstSlot()], cut[j.LastSlot()+1] = true, true
	}
	var ops []atomOp
	isNew := func(col int32) bool { return int(col) >= next && ops[int(col)-next].from < 0 }
	start := 0 // the first slot of the part of an old atom that holds slot t-1
	for t := range out {
		old := int32(-1)
		if t < len(atomCol) {
			old = atomCol[t]
		}
		switch {
		case old >= 0 && atomCol[t-1] != old: // an old atom starts (slot 0 is in none)
			out[t], start = old, t
		case old >= 0 && cut[t]:
			ops = append(ops, atomOp{from: out[t-1], bound: float64(t - start)})
			out[t], start = int32(next+len(ops)-1), t
		case old >= 0:
			out[t] = out[t-1]
		case t < len(covered) && covered[t] && !cut[t] && isNew(out[t-1]):
			out[t] = out[t-1]
			ops[int(out[t])-next].bound++
		case t < len(covered) && covered[t]:
			ops = append(ops, atomOp{from: -1, bound: 1})
			out[t] = int32(next + len(ops) - 1)
		default:
			out[t] = -1
		}
	}
	return out, ops
}

// RemoveJobs removes the jobs with the given IDs (duplicates tolerated,
// unknown IDs an error before anything mutates; emptying the instance is
// rejected). The departed jobs' seed rows and every cut whose job set
// touches them leave the master: excised from the live basis in place when
// all of them are slack, or — the counted escape hatch, never silent — when
// one is tight, removed from the master alone with the basis dropped
// (ColdRebuilds), so the next Solve starts cold from the surviving rows in
// their order. The registry remaps every surviving cut into the compacted
// job positions, and the separation network is rebuilt over the surviving
// jobs on the same atoms: departures merge none.
func (s *Session) RemoveJobs(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	dead := make([]bool, len(s.in.Jobs))
	nDead := 0
	for _, id := range ids {
		pos, ok := s.posByID[id]
		if !ok {
			return fmt.Errorf("activetime: RemoveJobs: no job with ID %d", id)
		}
		if !dead[pos] {
			dead[pos] = true
			nDead++
		}
	}
	if nDead == len(s.in.Jobs) {
		return fmt.Errorf("activetime: RemoveJobs would empty the instance")
	}
	mask := s.reg.rowsTouching(dead)
	var drop []int
	for i, d := range mask {
		if d {
			drop = append(drop, i)
		}
	}
	if err := s.prob.RemoveRows(drop, s.basis); err != nil {
		// A dead row is tight in the live basis (or the basis is out of
		// sync): removal cannot stay warm. Nothing was mutated; edit the
		// master alone and let the next Solve start cold.
		if err := s.prob.RemoveRows(drop, nil); err != nil {
			return fmt.Errorf("activetime: RemoveJobs: %w", err)
		}
		s.basis = nil
		s.stats.ColdRebuilds++
	}
	s.reg.dropRows(mask)
	posMap := make([]int32, len(s.in.Jobs))
	out := 0
	for i, j := range s.in.Jobs {
		if dead[i] {
			posMap[i] = -1
			delete(s.posByID, j.ID)
			continue
		}
		posMap[i] = int32(out)
		s.in.Jobs[out] = j
		s.posByID[j.ID] = out
		out++
	}
	s.in.Jobs = s.in.Jobs[:out]
	s.reg.remapJobs(posMap, out)
	s.sep = newAtomSeparator(s.in, s.atomCol)
	s.stats.RemoveCalls++
	s.solved = false
	return nil
}
