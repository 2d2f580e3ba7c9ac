//===- bench/bench_fusion.cpp - Transaction fusion ablation ---------------===//
///
/// \file
/// Measures what Lipton transaction fusion (analysis/Fusion.h) buys on the
/// tier-1 suites: for every workload, the deterministic "seq" order runs
/// once on the pruned program and once on the pruned-then-fused program,
/// and the explored DFS state counts (visited_total) are compared. Fusion
/// collapses maximal right-mover*·commit·left-mover* chains into single
/// transaction edges, so the fused arm must never explore more states, and
/// on the loop-heavy and affine suites — whose bodies are long both-mover
/// chains under the invariant registry — the reduction must be strict.
/// The per-suite counters land in BENCH_fusion.json via --benchmark_out,
/// which tools/check_perf.sh tracks as a perf-gate baseline.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "CheckMatrix.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace seqver;
using namespace seqver::bench;

namespace {

struct SuiteFusion {
  std::string Suite;
  int64_t VisitedUnfused = 0;
  int64_t VisitedFused = 0;
  int64_t FusedEdges = 0;
  int64_t Transactions = 0;
  int Mismatches = 0;

  double reductionPct() const {
    return VisitedUnfused == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(VisitedUnfused - VisitedFused) /
                     static_cast<double>(VisitedUnfused);
  }
};

/// The fusion check group's two sequential arms (pruned unfused, pruned
/// fused) over one suite.
SuiteFusion runFusionSuite(const std::string &Name,
                           std::vector<workloads::WorkloadInstance> S) {
  check::MatrixOptions O;
  O.TimeoutSeconds = benchTimeout();
  check::GroupResult R = check::runGroup(
      check::selectArms(*check::findGroup("fusion"), {"unfused", "fused"}),
      std::move(S), O);
  SuiteFusion Out;
  Out.Suite = Name;
  Out.VisitedUnfused = R.total("unfused", "visited_total");
  Out.VisitedFused = R.total("fused", "visited_total");
  Out.FusedEdges = R.total("fused", "fusion_fused_edges");
  Out.Transactions = R.total("fused", "fusion_transactions");
  Out.Mismatches = static_cast<int>(R.Failures.size());
  return Out;
}

std::vector<SuiteFusion> runAllSuites() {
  return {
      runFusionSuite("svcomp", workloads::svcompLikeSuite()),
      runFusionSuite("weaver", workloads::weaverLikeSuite()),
      runFusionSuite("loop_heavy", workloads::loopHeavySuite()),
      runFusionSuite("affine", workloads::affineSuite()),
  };
}

/// Suite-level fused-vs-unfused DFS state counts; the counters land in the
/// --benchmark_out JSON so BENCH_fusion.json tracks the reduction over
/// time. loop_heavy and affine must show a strict reduction (the
/// --check=fusion acceptance gate re-checks verdict agreement).
void BM_TransactionFusion(benchmark::State &State) {
  std::vector<SuiteFusion> Suites;
  for (auto _ : State) {
    Suites = runAllSuites();
    benchmark::DoNotOptimize(Suites.size());
  }
  int64_t Unfused = 0, Fused = 0, Edges = 0, Txns = 0, Mismatches = 0;
  for (const SuiteFusion &S : Suites) {
    State.counters["visited_unfused_" + S.Suite] =
        static_cast<double>(S.VisitedUnfused);
    State.counters["visited_fused_" + S.Suite] =
        static_cast<double>(S.VisitedFused);
    Unfused += S.VisitedUnfused;
    Fused += S.VisitedFused;
    Edges += S.FusedEdges;
    Txns += S.Transactions;
    Mismatches += S.Mismatches;
  }
  State.counters["visited_unfused_total"] = static_cast<double>(Unfused);
  State.counters["visited_fused_total"] = static_cast<double>(Fused);
  State.counters["fusion_fused_edges"] = static_cast<double>(Edges);
  State.counters["fusion_transactions"] = static_cast<double>(Txns);
  State.counters["verdict_mismatches"] = static_cast<double>(Mismatches);
}
BENCHMARK(BM_TransactionFusion)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

int main(int argc, char **argv) {
  std::printf("== Transaction fusion: DFS states fused vs unfused ==\n");
  std::printf("(per-instance timeout %.0fs, seq order, pruned programs)\n\n",
              benchTimeout());

  std::vector<SuiteFusion> Suites = runAllSuites();
  printTableHeader(
      {"suite", "vis-unfused", "vis-fused", "fewer%", "edges", "txn", "mism"},
      {12, 12, 12, 7, 6, 5, 5});
  int64_t Unfused = 0, Fused = 0;
  for (const SuiteFusion &S : Suites) {
    char Pct[16];
    std::snprintf(Pct, sizeof(Pct), "%.1f", S.reductionPct());
    printTableRow({S.Suite, std::to_string(S.VisitedUnfused),
                   std::to_string(S.VisitedFused), Pct,
                   std::to_string(S.FusedEdges),
                   std::to_string(S.Transactions),
                   std::to_string(S.Mismatches)},
                  {12, 12, 12, 7, 6, 5, 5});
    Unfused += S.VisitedUnfused;
    Fused += S.VisitedFused;
  }
  if (Unfused > 0)
    std::printf("\ntotal: %lld -> %lld DFS states (%.1f%% fewer)\n",
                static_cast<long long>(Unfused),
                static_cast<long long>(Fused),
                100.0 * static_cast<double>(Unfused - Fused) /
                    static_cast<double>(Unfused));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
