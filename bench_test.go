package repro

// One benchmark per experiment (E1-E18, matching the experiment index
// experiments.All) plus microbenchmarks of every substrate and ablation
// benchmarks for the design choices described in doc.go and the package
// docs. Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"

	"repro/internal/activetime"
	"repro/internal/busytime"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/intervals"
	"repro/internal/lp"
)

func benchExperiment(b *testing.B, id string) {
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tab, err := r.Run(experiments.Config{Quick: true, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE01_Fig3MinimalFeasible(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE02_LPRounding(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE03_IntegralityGap(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE04_Fig1Packing(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE05_Fig6GreedyTracking(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE06_Fig8PairCover(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE07_Fig9DemandProfile(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE08_Fig10FlexFactor4(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE09_PreemptiveUnbounded(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10_PreemptiveBounded(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11_IntervalShootout(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12_UnitActive(b *testing.B)          { benchExperiment(b, "E12") }
func BenchmarkE13_FlexiblePipeline(b *testing.B)    { benchExperiment(b, "E13") }

// --- substrate microbenchmarks ---

func BenchmarkDinicFeasibility(b *testing.B) {
	for _, size := range []struct{ n, T int }{{50, 80}, {200, 300}, {500, 600}} {
		b.Run(fmt.Sprintf("n=%d,T=%d", size.n, size.T), func(b *testing.B) {
			in := gen.RandomFlexible(gen.RandomConfig{
				N: size.n, Horizon: size.T, MaxLen: 6, Slack: 6, G: 4, Seed: 1,
			})
			open := activetime.AllSlots(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				activetime.CheckFeasible(in, open)
			}
		})
	}
}

func BenchmarkDinicRaw(b *testing.B) {
	// Layered random graph, int64 capacities.
	const layers, width = 8, 40
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := flow.NewNetwork[int64](2+layers*width, 0)
		src, sink := 0, 1+layers*width
		for w := 0; w < width; w++ {
			g.AddEdge(src, 1+w, int64(3+w%5))
			g.AddEdge(1+(layers-1)*width+w, sink, int64(3+w%7))
		}
		for l := 0; l+1 < layers; l++ {
			for w := 0; w < width; w++ {
				g.AddEdge(1+l*width+w, 1+(l+1)*width+(w*7+l)%width, int64(1+(w+l)%4))
				g.AddEdge(1+l*width+w, 1+(l+1)*width+(w*3+1)%width, int64(1+(w*l)%3))
			}
		}
		g.Max(src, sink)
	}
}

func BenchmarkSimplexMaster(b *testing.B) {
	// The shape of the active-time Benders master: T variables with upper
	// bounds plus covering cuts.
	const T = 120
	for i := 0; i < b.N; i++ {
		p := lp.NewProblem(T)
		for j := 0; j < T; j++ {
			p.SetObjective(j, 1)
			p.SetUpper(j, 1)
		}
		for r := 0; r < 40; r++ {
			var cols []int
			var vals []float64
			for j := r; j < T; j += 3 {
				cols = append(cols, j)
				vals = append(vals, float64(1+j%3))
			}
			if err := p.AddSparse(cols, vals, lp.GE, float64(5+r%7)); err != nil {
				b.Fatal(err)
			}
		}
		sol, err := lp.Solve(p)
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve: %v %v", err, sol.Status)
		}
	}
}

func BenchmarkSolveLPCutGen(b *testing.B) {
	in := gen.RandomFlexible(gen.RandomConfig{
		N: 20, Horizon: 30, MaxLen: 4, Slack: 4, G: 3, Seed: 5,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := activetime.SolveLP(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveLPLargeHorizon measures the full LP1 pipeline on the
// large-horizon laminar/nested family — the workload the factorized
// revised simplex, batched cut separation and cut-registry purging exist
// for. Separation rounds and purged cuts are reported alongside wall time.
// The small-horizon end of the cut-cap policy is BenchmarkSolveLPSmall in
// internal/activetime.
func BenchmarkSolveLPLargeHorizon(b *testing.B) {
	for _, T := range []int{1024, 2048, 4096} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			in := gen.LargeHorizon(gen.RandomConfig{
				N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: 3,
			})
			b.ReportAllocs()
			b.ResetTimer()
			var res *activetime.LPResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = activetime.SolveLP(in)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Cuts), "cuts")
			b.ReportMetric(float64(res.Purged), "purged")
		})
	}
}

// largeHorizonBench is the end-to-end benchmark's input (activebench, seed
// 1, instance 0): gen.LargeHorizon at T = 2048 with n = 256, g = 4 and
// lengths up to 16, where network builds and max flows are most of the
// post-LP work.
func largeHorizonBench() *core.Instance {
	return gen.LargeHorizon(gen.RandomConfig{N: 256, Horizon: 2048, MaxLen: 16, G: 4, Seed: 1000})
}

func BenchmarkRoundLP(b *testing.B) {
	for _, c := range []struct {
		name string
		in   *core.Instance
	}{
		{"n=20,T=30", gen.RandomFlexible(gen.RandomConfig{
			N: 20, Horizon: 30, MaxLen: 4, Slack: 4, G: 3, Seed: 5,
		})},
		{"LargeHorizon,n=256,T=2048", largeHorizonBench()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := activetime.RoundLP(c.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinimalFeasible times the right-to-left closing loop and
// reports its work per op next to the time: probes, the probes closed
// without a flow, and the Dinic continuations.
func BenchmarkMinimalFeasible(b *testing.B) {
	for _, c := range []struct {
		name string
		in   *core.Instance
	}{
		{"n=40,T=60", gen.RandomFlexible(gen.RandomConfig{
			N: 40, Horizon: 60, MaxLen: 5, Slack: 5, G: 3, Seed: 5,
		})},
		{"LargeHorizon,n=256,T=2048", largeHorizonBench()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *activetime.MinimalResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = activetime.MinimalFeasibleStats(c.in, activetime.MinimalOptions{
					Strategy: activetime.CloseRightToLeft,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Probes), "probes")
			b.ReportMetric(float64(res.FreeCloses), "free-closes")
			b.ReportMetric(float64(res.FlowAugments), "augments")
		})
	}
}

// BenchmarkTheorem1Certificate measures the Theorem 1 certificate alone on
// the end-to-end benchmark's first minimal-flow input: the right-to-left
// minimal schedule is computed once, and every op certifies a fresh deep
// copy of it, since the certificate rewrites its schedule in place.
func BenchmarkTheorem1Certificate(b *testing.B) {
	in := largeHorizonBench()
	sched, err := activetime.MinimalFeasible(in, activetime.MinimalOptions{Strategy: activetime.CloseRightToLeft})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp := &core.ActiveSchedule{Open: append([]core.Time(nil), sched.Open...), Assign: make(map[int][]core.Time, len(sched.Assign))}
		for id, slots := range sched.Assign {
			cp.Assign[id] = append([]core.Time(nil), slots...)
		}
		b.StartTimer()
		if _, err := activetime.BuildTheorem1Certificate(in, cp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnitExact(b *testing.B) {
	in := gen.RandomUnit(gen.RandomConfig{N: 200, Horizon: 150, Slack: 8, G: 4, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := activetime.SolveUnitExact(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxTrack(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := gen.RandomInterval(gen.RandomConfig{
				N: n, Horizon: 4 * n, MaxLen: 20, G: 4, Seed: 9,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				intervals.MaxTrack(in.Jobs, intervals.TieBenign)
			}
		})
	}
}

func BenchmarkDemandProfile(b *testing.B) {
	in := gen.RandomInterval(gen.RandomConfig{N: 2000, Horizon: 5000, MaxLen: 40, G: 8, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		intervals.NewDemandProfile(in.Jobs, in.G).Cost()
	}
}

func BenchmarkGreedyTracking(b *testing.B) {
	for _, n := range []int{50, 200, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := gen.RandomInterval(gen.RandomConfig{
				N: n, Horizon: 3 * n, MaxLen: 20, G: 4, Seed: 11,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := busytime.GreedyTracking(in, busytime.GTOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFirstFit(b *testing.B) {
	in := gen.RandomInterval(gen.RandomConfig{N: 500, Horizon: 1500, MaxLen: 20, G: 4, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := busytime.FirstFit(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairCover(b *testing.B) {
	in := gen.RandomInterval(gen.RandomConfig{N: 500, Horizon: 1500, MaxLen: 20, G: 4, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := busytime.PairCover(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreemptiveUnbounded(b *testing.B) {
	in := gen.RandomFlexible(gen.RandomConfig{
		N: 300, Horizon: 500, MaxLen: 10, Slack: 8, G: 1, Seed: 11,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := busytime.PreemptiveUnbounded(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreemptiveBounded(b *testing.B) {
	in := gen.RandomFlexible(gen.RandomConfig{
		N: 300, Horizon: 500, MaxLen: 10, Slack: 8, G: 8, Seed: 11,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := busytime.PreemptiveBounded(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicSpan(b *testing.B) {
	in := gen.RandomFlexible(gen.RandomConfig{
		N: 100, Horizon: 300, MaxLen: 10, Slack: 10, G: 4, Seed: 11,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (busytime.HeuristicSpan{}).MinimizeSpan(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ---

// BenchmarkAblation_TieBreaks compares GreedyTracking cost and time under
// the two tie-breaking rules (quality printed once via b.Log on first run).
func BenchmarkAblation_TieBreaks(b *testing.B) {
	in := gen.RandomInterval(gen.RandomConfig{N: 300, Horizon: 900, MaxLen: 20, G: 4, Seed: 13})
	for _, tb := range []struct {
		name string
		tie  intervals.TieBreak
	}{{"benign", intervals.TieBenign}, {"adversarial", intervals.TieAdversarial}} {
		b.Run(tb.name, func(b *testing.B) {
			var cost core.Time
			for i := 0; i < b.N; i++ {
				s, err := busytime.GreedyTracking(in, busytime.GTOptions{Tie: tb.tie})
				if err != nil {
					b.Fatal(err)
				}
				cost, err = s.Cost(in)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost), "busytime")
		})
	}
}

// BenchmarkAblation_MinimalOrders compares closing orders for the minimal
// feasible algorithm (Theorem 1 holds for any order; quality differs).
func BenchmarkAblation_MinimalOrders(b *testing.B) {
	in := gen.RandomFlexible(gen.RandomConfig{
		N: 25, Horizon: 40, MaxLen: 5, Slack: 5, G: 3, Seed: 13,
	})
	for _, o := range []struct {
		name string
		opts activetime.MinimalOptions
	}{
		{"left-to-right", activetime.MinimalOptions{Strategy: activetime.CloseLeftToRight}},
		{"right-to-left", activetime.MinimalOptions{Strategy: activetime.CloseRightToLeft}},
		{"shuffled", activetime.MinimalOptions{Shuffle: true, Seed: 99}},
	} {
		b.Run(o.name, func(b *testing.B) {
			var cost core.Time
			for i := 0; i < b.N; i++ {
				s, err := activetime.MinimalFeasible(in, o.opts)
				if err != nil {
					b.Fatal(err)
				}
				cost = s.Cost()
			}
			b.ReportMetric(float64(cost), "activetime")
		})
	}
}

// BenchmarkAblation_SpanMinimizer compares span-minimizer effort levels.
func BenchmarkAblation_SpanMinimizer(b *testing.B) {
	in := gen.RandomFlexible(gen.RandomConfig{
		N: 60, Horizon: 150, MaxLen: 8, Slack: 8, G: 4, Seed: 13,
	})
	for _, passes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			var span core.Time
			for i := 0; i < b.N; i++ {
				var err error
				_, span, err = busytime.HeuristicSpan{MaxPasses: passes}.MinimizeSpan(in)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(span), "span")
		})
	}
}

func BenchmarkE14_SpecialCases(b *testing.B) { benchExperiment(b, "E14") }

func BenchmarkE15_Online(b *testing.B) { benchExperiment(b, "E15") }

func BenchmarkE16_Scaling(b *testing.B) { benchExperiment(b, "E16") }

func BenchmarkE17_LPScaling(b *testing.B) { benchExperiment(b, "E17") }

func BenchmarkE18_PivotCost(b *testing.B) { benchExperiment(b, "E18") }
