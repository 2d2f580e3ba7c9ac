//===- bench/bench_proof_cache.cpp - Warm-start ablation ------------------===//
///
/// Measures what the persistent proof cache (docs/PERSIST.md) buys on
/// re-verification. Four arms over the loop-heavy + affine suites, all
/// single-order `seq` runs against one on-disk store:
///
///   cold          empty store; every instance misses, decisive runs
///                 write back (the first CI run / first local build)
///   warm          identical sources; every instance hits and seeds its
///                 own previous proof (the unchanged-rerun case) — the
///                 headline rounds_saved number
///   warm-renamed  alpha-renamed sources (variables and thread names);
///                 the structural fingerprint still hits, but cached
///                 predicates are name-based, so seeds mentioning renamed
///                 variables land in the cache! namespace and the Hoare
///                 gate drops them — hits stay at 100% while the savings
///                 only survive on instances whose names did
///   edited        semantically edited sources (one extra global); the
///                 fingerprint changes, so every instance must miss and
///                 pay the cold cost (invalidation works)
///
/// Expected shape: warm rounds strictly below cold rounds in aggregate
/// (the acceptance bar for the subsystem), renamed between warm and cold
/// with full hits, edited equal to cold in rounds and hits == 0.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "persist/ProofCache.h"
#include "program/CfgBuilder.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

using namespace seqver;
using namespace seqver::bench;

namespace {

/// Scratch store shared by all arms of one comparison; recreated empty.
std::string scratchCacheDir() {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("seqver_bench_cache_" + std::to_string(::getpid())))
                        .string();
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::vector<workloads::WorkloadInstance> cacheSuite() {
  std::vector<workloads::WorkloadInstance> Suite =
      workloads::loopHeavySuite();
  for (const auto &W : workloads::affineSuite())
    Suite.push_back(W);
  return Suite;
}

/// Alpha-renamed twins: same shape as loopSumSource/affineSumSource with
/// every identifier renamed — the fingerprint must not notice. Instances
/// whose generator we do not mirror keep their original source (they
/// still hit, trivially; the renamed loop/affine entries are the ones
/// exercising the name-invariance).
std::string renamedCounterSource(int N, int Bound, int Step) {
  std::string Out = "var int k := 0;\nvar int acc := 0;\n";
  Out += "thread grinder {\n"
         "  while (k < " + std::to_string(N) + ") {\n"
         "    acc := acc + " + std::to_string(Step) + ";\n"
         "    k := k + 1;\n"
         "  }\n"
         "}\n";
  Out += "thread observer { assert acc <= " + std::to_string(Bound) +
         "; }\n";
  return Out;
}

std::vector<workloads::WorkloadInstance> renamedSuite() {
  std::vector<workloads::WorkloadInstance> Suite = cacheSuite();
  for (auto &W : Suite) {
    if (W.Name == "loop_sum_safe_5")
      W.Source = renamedCounterSource(5, 5, 1);
    else if (W.Name == "loop_sum_bug_5")
      W.Source = renamedCounterSource(5, 4, 1);
    else if (W.Name == "loop_sum_safe_6")
      W.Source = renamedCounterSource(6, 6, 1);
    else if (W.Name == "loop_sum_bug_6")
      W.Source = renamedCounterSource(6, 5, 1);
    else if (W.Name == "affine_sum_safe_5")
      W.Source = renamedCounterSource(5, 10, 2);
    else if (W.Name == "affine_sum_bug_5")
      W.Source = renamedCounterSource(5, 9, 2);
  }
  return Suite;
}

/// Semantically edited twins: one extra (unused) global flips the
/// fingerprint of every instance, so the whole arm must run cold.
std::vector<workloads::WorkloadInstance> editedSuite() {
  std::vector<workloads::WorkloadInstance> Suite = cacheSuite();
  for (auto &W : Suite)
    W.Source = "var int shadow := 0;\n" + W.Source;
  return Suite;
}

/// Single-order seq run against the shared store (runTool has no cache
/// knob on purpose — the harness tools stay cold by default).
RunRecord runCached(const workloads::WorkloadInstance &W,
                    const std::string &Tool, const std::string &CacheDir) {
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(W.Source, TM);
  RunRecord Out;
  Out.Instance = W.Name;
  Out.Family = W.Family;
  Out.ExpectedCorrect = W.ExpectedCorrect;
  Out.Tool = Tool;
  if (!B.ok()) {
    std::fprintf(stderr, "build error in %s: %s\n", W.Name.c_str(),
                 B.Error.c_str());
    return Out;
  }
  core::VerifierConfig Config;
  Config.TimeoutSeconds = benchTimeout();
  Config.CacheDir = CacheDir;
  core::VerificationResult R =
      core::runSingleOrder(*B.Program, Config, "seq");
  Out.V = R.V;
  Out.Seconds = R.Seconds;
  Out.Rounds = R.Rounds;
  Out.ProofSize = R.ProofSize;
  Out.SmtQueries = R.Stats.get("smt_queries");
  Out.SeededPredicates = R.Stats.get("seeded_predicates");
  Out.CacheHits = R.Stats.get("cache_hits");
  Out.CacheMisses = R.Stats.get("cache_misses");
  Out.CacheSeeded = R.Stats.get("cache_seeded");
  Out.RoundsSavedWarm = R.Stats.get("rounds_saved_warm");
  Out.CacheStores = R.Stats.get("cache_stores");
  return Out;
}

std::vector<RunRecord>
runArm(const std::vector<workloads::WorkloadInstance> &Suite,
       const std::string &Tool, const std::string &CacheDir) {
  std::vector<RunRecord> Out;
  Out.reserve(Suite.size());
  for (const auto &W : Suite)
    Out.push_back(runCached(W, Tool, CacheDir));
  return Out;
}

void printComparison(const std::vector<RunRecord> &Cold,
                     const std::vector<RunRecord> &Warm,
                     const std::vector<RunRecord> &Renamed,
                     const std::vector<RunRecord> &Edited) {
  printTableHeader({"instance", "verdict", "rd-cold", "rd-warm", "rd-ren",
                    "rd-edit", "hit-w", "seeds-w"},
                   {20, 10, 7, 7, 7, 7, 5, 7});
  for (size_t I = 0; I < Cold.size(); ++I)
    printTableRow({Cold[I].Instance, core::verdictName(Warm[I].V),
                   std::to_string(Cold[I].Rounds),
                   std::to_string(Warm[I].Rounds),
                   std::to_string(Renamed[I].Rounds),
                   std::to_string(Edited[I].Rounds),
                   std::to_string(Warm[I].CacheHits),
                   std::to_string(Warm[I].CacheSeeded)},
                  {20, 10, 7, 7, 7, 7, 5, 7});
}

/// Counters land in --benchmark_out JSON (EXPERIMENTS.md cites a run).
void BM_ProofCacheWarmStart(benchmark::State &State) {
  std::string Dir = scratchCacheDir();
  SuiteAggregate Cold, Warm, Renamed, Edited;
  int StrictlyFewer = 0;
  for (auto _ : State) {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    std::filesystem::create_directories(Dir);
    auto ColdR = runArm(cacheSuite(), "seq-cold", Dir);
    auto WarmR = runArm(cacheSuite(), "seq-warm", Dir);
    auto RenamedR = runArm(renamedSuite(), "seq-renamed", Dir);
    auto EditedR = runArm(editedSuite(), "seq-edited", Dir);
    benchmark::DoNotOptimize(ColdR.size());
    Cold = aggregate(ColdR);
    Warm = aggregate(WarmR);
    Renamed = aggregate(RenamedR);
    Edited = aggregate(EditedR);
    StrictlyFewer = 0;
    for (size_t I = 0; I < ColdR.size(); ++I)
      if (WarmR[I].V == core::Verdict::Correct &&
          WarmR[I].Rounds < ColdR[I].Rounds)
        ++StrictlyFewer;
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  State.counters["rounds_cold"] = static_cast<double>(Cold.TotalRounds);
  State.counters["rounds_warm"] = static_cast<double>(Warm.TotalRounds);
  State.counters["rounds_saved"] =
      static_cast<double>(Cold.TotalRounds - Warm.TotalRounds);
  State.counters["strictly_fewer_rounds_warm"] =
      static_cast<double>(StrictlyFewer);
  State.counters["cache_hits"] = static_cast<double>(Warm.TotalCacheHits);
  State.counters["cache_misses"] =
      static_cast<double>(Warm.TotalCacheMisses);
  State.counters["cache_seeded"] =
      static_cast<double>(Warm.TotalCacheSeeded);
  State.counters["rounds_saved_warm"] =
      static_cast<double>(Warm.TotalRoundsSavedWarm);
  State.counters["cache_stores_cold"] =
      static_cast<double>(Cold.TotalCacheStores);
  State.counters["smt_queries_cold"] =
      static_cast<double>(Cold.TotalSmtQueries);
  State.counters["smt_queries_warm"] =
      static_cast<double>(Warm.TotalSmtQueries);
  State.counters["rounds_renamed"] =
      static_cast<double>(Renamed.TotalRounds);
  State.counters["cache_hits_renamed"] =
      static_cast<double>(Renamed.TotalCacheHits);
  State.counters["rounds_edited"] = static_cast<double>(Edited.TotalRounds);
  State.counters["cache_hits_edited"] =
      static_cast<double>(Edited.TotalCacheHits);
  State.counters["cache_misses_edited"] =
      static_cast<double>(Edited.TotalCacheMisses);
}
BENCHMARK(BM_ProofCacheWarmStart)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

int main(int argc, char **argv) {
  std::printf("== Persistent proof cache: cold / warm / renamed / edited "
              "==\n");
  std::printf("(per-instance timeout %.0fs, single order seq)\n\n",
              benchTimeout());

  std::string Dir = scratchCacheDir();
  auto Cold = runArm(cacheSuite(), "seq-cold", Dir);
  auto Warm = runArm(cacheSuite(), "seq-warm", Dir);
  auto Renamed = runArm(renamedSuite(), "seq-renamed", Dir);
  auto Edited = runArm(editedSuite(), "seq-edited", Dir);
  printComparison(Cold, Warm, Renamed, Edited);

  SuiteAggregate A = aggregate(Cold), B = aggregate(Warm),
                 C = aggregate(Renamed), D = aggregate(Edited);
  std::printf("\nrefinement rounds: %lld cold vs %lld warm vs %lld renamed "
              "vs %lld edited\n",
              static_cast<long long>(A.TotalRounds),
              static_cast<long long>(B.TotalRounds),
              static_cast<long long>(C.TotalRounds),
              static_cast<long long>(D.TotalRounds));
  std::printf("warm traffic: %lld hit(s), %lld seeded predicate(s), %lld "
              "round(s) saved\n",
              static_cast<long long>(B.TotalCacheHits),
              static_cast<long long>(B.TotalCacheSeeded),
              static_cast<long long>(B.TotalRoundsSavedWarm));
  std::printf("edited traffic: %lld hit(s), %lld miss(es) — every edit "
              "invalidates\n",
              static_cast<long long>(D.TotalCacheHits),
              static_cast<long long>(D.TotalCacheMisses));
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
