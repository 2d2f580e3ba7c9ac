//===- tools/seqver_cli.cpp - Command line verifier ------------------------===//
///
/// The command-line front door: verifies a concurrent program written in
/// the mini-language (see docs in README.md) with a chosen preference order
/// or the full portfolio.
///
/// Usage:
///   seqver [options] <file.conc>
///   seqver --check=<group|all>[,quick]
///
/// Options:
///   --order=<seq|lockstep|rand(1)|rand(2)|rand(3)|baseline>
///                         single preference order (default: portfolio)
///   --portfolio=<sequential|parallel>
///                         sequential emulation (as-if-parallel aggregate,
///                         default) or the real racing executor
///   --jobs=<n>            worker threads for --portfolio=parallel
///                         (default 0: hardware concurrency)
///   --rand-seed=<n>       seed base for the rand(k) portfolio orders
///                         (orders become rand(n+1)..rand(n+3))
///   --analyze             print the static race/independence report and
///                         exit (1 when potential races are found)
///   --analyze=karr        print the Karr affine-equality invariants per
///                         thread location and exit
///   --analyze=movers      print the Lipton mover classification of the
///                         pruned program (one line per statement, naming
///                         the justifying invariant source for conditional
///                         movers) and the transactions fusion would
///                         build, then exit
///   --no-sleep            disable sleep set reduction
///   --no-persistent       disable persistent set reduction
///   --no-proof-sensitive  disable conditional commutativity (Def. 7.3)
///   --no-static           disable the solver-free commutativity tier
///   --no-octagon          disable the octagon sub-tier and relational
///                         dead-edge pruning (--octagon re-enables; on by
///                         default)
///   --no-karr             disable the Karr affine sub-tier, its proof
///                         seeding, and affine dead-edge pruning (--karr
///                         re-enables; on by default)
///   --seed-proof          seed the proof automaton with octagon and Karr
///                         invariant atoms before round 1 (--no-seed
///                         restores the default unseeded refinement)
///   --no-prune            keep statically dead CFG edges
///   --fuse                fuse Lipton transactions (right-mover*·commit·
///                         left-mover* chains become single atomic edges)
///                         before verification; --no-fuse restores the
///                         default unfused program
///   --cache-dir=<dir>     persistent proof cache directory: warm-start the
///                         proof automaton from stored predicates (Hoare-
///                         gated, so a stale cache costs time, never
///                         soundness) and write decisive results back
///   --no-cache            ignore any --cache-dir given earlier
///   --cache-stats         print the cache counters after the run
///   --commut-cache=<off|shared|persist|conservative>
///                         shared commutativity oracle
///                         (reduction/CommutOracle.h) for --order and
///                         --portfolio=parallel runs. off: private
///                         per-checker caches only. shared (default): one
///                         in-memory table for all portfolio workers.
///                         persist: additionally load/flush settled
///                         answers beside the proof cache under
///                         --cache-dir (required). conservative: like
///                         persist but reuse persisted negative
///                         ("dependent") answers only. The sequential
///                         portfolio always stays private so its
///                         as-if-parallel aggregate stays comparable.
///   --no-incremental      discard the SMT solver after every query instead
///                         of reusing incremental sessions (docs/PERF.md §7;
///                         --incremental restores the default)
///   --check=<group|all>[,quick]
///                         run the differential check matrix
///                         (tools/CheckMatrix.h): every arm of the group
///                         on every workload of its suites (quick: every
///                         third workload); fail if the arms' verdicts
///                         differ, a decisive one misses the ground
///                         truth, or a group assertion fails. Groups:
///                         tiers, parallel, cache, fusion, commut,
///                         incremental. Honors --timeout (default 10
///                         here), --jobs and --rand-seed.
///   --timeout=<seconds>   per-analysis timeout (default 60; 0 disables)
///   --witness             print the error trace for incorrect programs
///   --proof               print the final proof assertions
///   --minimize            greedily minimize the proof before reporting
///   --source=<wp|interp|both>
///                         refinement predicate source (default wp)
///   --simulate=<n>        before verifying, try n random executions
///   --stats               print detailed statistics
///
/// Malformed numbers and option combinations that would be silently
/// ignored are usage errors (exit 2).
///
//===----------------------------------------------------------------------===//

#include "CheckMatrix.h"
#include "analysis/Analysis.h"
#include "analysis/Fusion.h"
#include "core/Portfolio.h"
#include "core/Prepare.h"
#include "persist/Fingerprint.h"
#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "reduction/CommutOracle.h"
#include "runtime/ParallelPortfolio.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

using namespace seqver;

namespace {

struct CliOptions {
  std::string File;
  std::string Order; // empty = portfolio
  bool ParallelPortfolio = false;
  unsigned Jobs = 0; // 0 = hardware concurrency
  uint64_t RandSeedBase = 0;
  bool Analyze = false;
  bool NoSleep = false;
  bool NoPersistent = false;
  bool NoProofSensitive = false;
  bool NoStatic = false;
  bool NoOctagon = false;
  bool NoKarr = false;
  std::string AnalyzeFocus; // "karr" / "movers" = focused dumps
  bool SeedProof = false;
  bool NoPrune = false;
  bool Fuse = false;
  std::vector<const check::Group *> Check; // --check groups to run
  bool CheckQuick = false;
  bool PrintWitness = false;
  bool PrintProof = false;
  bool Minimize = false;
  std::string Source = "wp";
  uint64_t Simulate = 0;
  bool PrintStats = false;
  double Timeout = 60;
  bool TimeoutSet = false;
  std::string CacheDir;
  bool CacheStats = false;
  std::string CommutCache = "shared";
  bool Incremental = true;
};

void printUsage() {
  std::printf(
      "usage: seqver [options] <file.conc>\n"
      "       seqver --check=<tiers|parallel|cache|fusion|commut|"
      "incremental|all>[,quick]\n"
      "  --order=<seq|lockstep|rand(1)|rand(2)|rand(3)|baseline>\n"
      "  --portfolio=<sequential|parallel> --jobs=<n> --rand-seed=<n>\n"
      "  --analyze[=karr|movers] --no-sleep --no-persistent\n"
      "  --no-proof-sensitive\n"
      "  --no-static --no-octagon --no-karr --seed-proof --no-seed\n"
      "  --no-prune --fuse --no-fuse\n"
      "  --cache-dir=<dir> --no-cache --cache-stats\n"
      "  --commut-cache=<off|shared|persist|conservative>\n"
      "  --no-incremental --incremental\n"
      "  --minimize\n"
      "  --source=<wp|interp|both>\n"
      "  --timeout=<seconds> --witness --proof --stats\n");
}

/// Parses what follows the first Prefix characters of Arg as a number in
/// [Min, Max]: all of it, no sign or junk the type does not allow, no
/// overflow. Complains on stderr otherwise.
template <typename T>
bool parseNumber(const std::string &Arg, size_t Prefix, T Min, T Max,
                 T &Out) {
  const char *First = Arg.data() + Prefix, *Last = Arg.data() + Arg.size();
  T Value{};
  auto [End, Err] = std::from_chars(First, Last, Value);
  if (First == Last || Err != std::errc() || End != Last ||
      !(Value >= Min && Value <= Max)) {
    std::fprintf(stderr, "malformed number in '%s'\n", Arg.c_str());
    return false;
  }
  Out = Value;
  return true;
}

/// Parses the value of --check=<group|all>[,quick].
bool parseCheck(std::string_view Spec, CliOptions &Opts) {
  std::string_view Name = Spec.substr(0, Spec.find(','));
  std::string_view Rest =
      Name.size() < Spec.size() ? Spec.substr(Name.size() + 1) : "";
  if (!Rest.empty() && Rest != "quick") {
    std::fprintf(stderr, "unknown --check modifier '%.*s'\n",
                 static_cast<int>(Rest.size()), Rest.data());
    return false;
  }
  Opts.CheckQuick = Rest == "quick";
  Opts.Check.clear();
  for (const check::Group &G : check::groups())
    if (Name == "all" || Name == G.Name)
      Opts.Check.push_back(&G);
  if (Opts.Check.empty()) {
    std::fprintf(stderr, "unknown check group '%.*s'\n",
                 static_cast<int>(Name.size()), Name.data());
    return false;
  }
  return true;
}

bool parseArgs(int argc, char **argv, CliOptions &Opts) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--order=", 0) == 0) {
      Opts.Order = Arg.substr(8);
    } else if (Arg.rfind("--portfolio=", 0) == 0) {
      std::string Mode = Arg.substr(12);
      if (Mode == "parallel") {
        Opts.ParallelPortfolio = true;
      } else if (Mode == "sequential") {
        Opts.ParallelPortfolio = false;
      } else {
        std::fprintf(stderr, "unknown portfolio mode '%s'\n", Mode.c_str());
        return false;
      }
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      // The executor never starts more workers than there are orders.
      if (!parseNumber(Arg, 7, 0u, 4096u, Opts.Jobs))
        return false;
    } else if (Arg.rfind("--rand-seed=", 0) == 0) {
      if (!parseNumber(Arg, 12, uint64_t{0},
                       std::numeric_limits<uint64_t>::max(),
                       Opts.RandSeedBase))
        return false;
    } else if (Arg.rfind("--check=", 0) == 0) {
      if (!parseCheck(std::string_view(Arg).substr(8), Opts))
        return false;
    } else if (Arg == "--analyze") {
      Opts.Analyze = true;
    } else if (Arg == "--analyze=karr") {
      Opts.Analyze = true;
      Opts.AnalyzeFocus = "karr";
    } else if (Arg == "--analyze=movers") {
      Opts.Analyze = true;
      Opts.AnalyzeFocus = "movers";
    } else if (Arg == "--no-sleep") {
      Opts.NoSleep = true;
    } else if (Arg == "--no-persistent") {
      Opts.NoPersistent = true;
    } else if (Arg == "--no-proof-sensitive") {
      Opts.NoProofSensitive = true;
    } else if (Arg == "--no-static") {
      Opts.NoStatic = true;
    } else if (Arg == "--no-octagon") {
      Opts.NoOctagon = true;
    } else if (Arg == "--octagon") {
      Opts.NoOctagon = false;
    } else if (Arg == "--no-karr") {
      Opts.NoKarr = true;
    } else if (Arg == "--karr") {
      Opts.NoKarr = false;
    } else if (Arg == "--seed-proof") {
      Opts.SeedProof = true;
    } else if (Arg == "--no-seed") {
      Opts.SeedProof = false;
    } else if (Arg == "--no-prune") {
      Opts.NoPrune = true;
    } else if (Arg == "--fuse") {
      Opts.Fuse = true;
    } else if (Arg == "--no-fuse") {
      Opts.Fuse = false;
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Opts.CacheDir = Arg.substr(12);
    } else if (Arg == "--no-cache") {
      Opts.CacheDir.clear();
    } else if (Arg == "--cache-stats") {
      Opts.CacheStats = true;
    } else if (Arg.rfind("--commut-cache=", 0) == 0) {
      Opts.CommutCache = Arg.substr(15);
      if (Opts.CommutCache != "off" && Opts.CommutCache != "shared" &&
          Opts.CommutCache != "persist" &&
          Opts.CommutCache != "conservative") {
        std::fprintf(stderr, "unknown commut-cache mode '%s'\n",
                     Opts.CommutCache.c_str());
        return false;
      }
    } else if (Arg == "--no-incremental") {
      Opts.Incremental = false;
    } else if (Arg == "--incremental") {
      Opts.Incremental = true;
    } else if (Arg == "--witness") {
      Opts.PrintWitness = true;
    } else if (Arg == "--proof") {
      Opts.PrintProof = true;
    } else if (Arg == "--minimize") {
      Opts.Minimize = true;
    } else if (Arg.rfind("--source=", 0) == 0) {
      Opts.Source = Arg.substr(9);
      if (Opts.Source != "wp" && Opts.Source != "interp" &&
          Opts.Source != "both") {
        std::fprintf(stderr, "unknown predicate source '%s'\n",
                     Opts.Source.c_str());
        return false;
      }
    } else if (Arg == "--stats") {
      Opts.PrintStats = true;
    } else if (Arg.rfind("--simulate=", 0) == 0) {
      if (!parseNumber(Arg, 11, uint64_t{0},
                       std::numeric_limits<uint64_t>::max(), Opts.Simulate))
        return false;
    } else if (Arg.rfind("--timeout=", 0) == 0) {
      // 0 disables the deadline explicitly; a year bounds the rest.
      if (!parseNumber(Arg, 10, 0.0, 365.0 * 24 * 3600, Opts.Timeout))
        return false;
      Opts.TimeoutSet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      return false;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Opts.File.empty()) {
      Opts.File = Arg;
    } else {
      std::fprintf(stderr, "multiple input files\n");
      return false;
    }
  }
  if (!Opts.Order.empty() && Opts.Order != "baseline" &&
      Opts.Order != "seq" && Opts.Order != "lockstep") {
    // The rand(k) orders are named by their seeds, which --rand-seed
    // shifts: rand(n+1) .. rand(n+RandOrders).
    bool Known = false;
    for (int K = 1; K <= core::VerifierConfig().RandOrders; ++K)
      Known |= Opts.Order ==
               "rand(" + std::to_string(Opts.RandSeedBase + K) + ")";
    if (!Known) {
      std::fprintf(stderr, "unknown order '%s'\n", Opts.Order.c_str());
      return false;
    }
  }
  if ((Opts.CommutCache == "persist" || Opts.CommutCache == "conservative") &&
      Opts.CacheDir.empty()) {
    std::fprintf(stderr, "--commut-cache=%s needs --cache-dir\n",
                 Opts.CommutCache.c_str());
    return false;
  }
  return !Opts.Check.empty() || !Opts.File.empty();
}

/// Prints the proof-cache counters of Stats on one line.
void reportCacheStats(const Statistics &Stats) {
  std::printf("cache: %lld hit(s), %lld miss(es), %lld seeded "
              "predicate(s), %lld round(s) saved warm, %lld store(s)\n",
              static_cast<long long>(Stats.get("cache_hits")),
              static_cast<long long>(Stats.get("cache_misses")),
              static_cast<long long>(Stats.get("cache_seeded")),
              static_cast<long long>(Stats.get("rounds_saved_warm")),
              static_cast<long long>(Stats.get("cache_stores")));
}

void report(const core::VerificationResult &R,
            const prog::ConcurrentProgram &P, const CliOptions &Opts,
            const std::string &OrderName) {
  std::printf("verdict: %s", core::verdictName(R.V).c_str());
  if (!OrderName.empty())
    std::printf(" (order: %s)", OrderName.c_str());
  std::printf("\nrounds: %d  proof size: %zu", R.Rounds, R.ProofSize);
  if (R.MinimizedProofSize > 0)
    std::printf("  minimized: %zu", R.MinimizedProofSize);
  std::printf("  time: %.3fs\n", R.Seconds);
  if (Opts.PrintWitness && R.V == core::Verdict::Incorrect) {
    std::printf("witness:\n");
    for (automata::Letter L : R.Witness)
      std::printf("  %s\n", P.action(L).Name.c_str());
  }
  if (Opts.PrintProof && R.V == core::Verdict::Correct) {
    std::printf("proof assertions:\n");
    for (const std::string &Assertion : R.ProofAssertions)
      std::printf("  %s\n", Assertion.c_str());
  }
  if (Opts.PrintStats)
    std::printf("stats: %s\n", R.Stats.str().c_str());
}

/// Runs the --check groups; returns the process exit code.
int runChecks(const CliOptions &Opts) {
  check::MatrixOptions MO;
  MO.TimeoutSeconds = Opts.TimeoutSet ? Opts.Timeout : 10;
  MO.Jobs = Opts.Jobs;
  MO.RandSeedBase = Opts.RandSeedBase;
  MO.Quick = Opts.CheckQuick;
  MO.Out = stdout;
  size_t Failures = 0;
  for (const check::Group *G : Opts.Check) {
    check::GroupResult R = check::runGroup(*G, MO);
    std::fflush(stdout);
    for (const std::string &F : R.Failures)
      std::fprintf(stderr, "error: %s: %s\n", G->Name.c_str(), F.c_str());
    Failures += R.Failures.size();
    std::printf("\n");
  }
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opts;
  if (!parseArgs(argc, argv, Opts)) {
    printUsage();
    return 2;
  }
  if (!Opts.Check.empty())
    return runChecks(Opts);

  std::ifstream In(Opts.File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Opts.File.c_str());
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  smt::TermManager TM;
  prog::BuildResult Build = prog::buildFromSource(Buffer.str(), TM);
  if (!Build.ok()) {
    std::fprintf(stderr, "%s: %s\n", Opts.File.c_str(),
                 Build.Error.c_str());
    return 2;
  }
  prog::ConcurrentProgram &P = *Build.Program;
  std::printf("%s: %d threads, %u locations, %u statements\n",
              Opts.File.c_str(), P.numThreads(), P.size(), P.numLetters());

  core::VerifierConfig Config;
  Config.TimeoutSeconds = Opts.Timeout;
  Config.RandSeedBase = Opts.RandSeedBase;
  Config.CacheDir = Opts.CacheDir;
  Config.UseSleepSets = !Opts.NoSleep;
  Config.UsePersistentSets = !Opts.NoPersistent;
  Config.ProofSensitive = !Opts.NoProofSensitive && !Opts.NoSleep;
  Config.StaticTier = !Opts.NoStatic;
  Config.OctagonTier = !Opts.NoOctagon;
  Config.KarrTier = !Opts.NoKarr;
  Config.SeedProof = Opts.SeedProof;
  Config.PruneDeadEdges = !Opts.NoPrune;
  Config.FuseTransactions = Opts.Fuse;
  Config.IncrementalSmt = Opts.Incremental;
  Config.MinimizeProof = Opts.Minimize;
  Config.Source = Opts.Source == "interp"
                      ? core::PredicateSource::Interpolation
                  : Opts.Source == "both" ? core::PredicateSource::Both
                                          : core::PredicateSource::WpChain;

  if (Opts.Analyze) {
    if (Opts.AnalyzeFocus == "karr") {
      // Affine invariant dump: every location whose Karr system knows
      // something, one atom per line.
      analysis::KarrAnalysis Karr(P);
      std::printf("== karr affine invariants ==\n");
      for (int T = 0; T < P.numThreads(); ++T) {
        const prog::ThreadCfg &Cfg = P.thread(T);
        for (prog::Location L = 0; L < Cfg.numLocations(); ++L) {
          std::vector<smt::Term> Atoms = Karr.invariantAtoms(T, L);
          if (Atoms.empty())
            continue;
          std::printf("thread %d loc %u:\n", T, L);
          for (smt::Term Atom : Atoms)
            std::printf("  %s\n", TM.str(Atom).c_str());
        }
      }
      std::printf("affine locations: %zu\n", Karr.numAffineLocations());
      return 0;
    }
    if (Opts.AnalyzeFocus == "movers") {
      // Classify the program the verifier would actually run: pruned as
      // the run would prune it, so the dead-edge vacuity rule bites. Then
      // fuse it, whether or not --fuse was given, to report what fusion
      // would build from this classification.
      core::VerifierConfig PruneOnly = Config;
      PruneOnly.FuseTransactions = false;
      core::prepareProgram(P, PruneOnly);
      analysis::ProgramAnalysis PA(P);
      analysis::MoverAnalysis Movers(P, PA.locks(), PA.accesses(),
                                     PA.invariantSources());
      std::printf("%s", Movers.report().c_str());
      core::VerifierConfig FuseOnly = Config;
      FuseOnly.PruneDeadEdges = false;
      FuseOnly.FuseTransactions = true;
      analysis::FusionStats FS = core::prepareProgram(P, FuseOnly).Fusion;
      std::printf("fusion: %u edge(s) into %u transaction(s); alphabet "
                  "%u -> %u, reachable locations %u -> %u\n",
                  FS.FusedEdges, FS.Transactions, FS.AlphabetBefore,
                  FS.AlphabetAfter, FS.StatesBefore, FS.StatesAfter);
      return 0;
    }
    analysis::ProgramAnalysis PA(P);
    std::printf("%s", PA.report().c_str());
    return PA.races().raceFree() ? 0 : 1;
  }

  core::PrepareStats Prep = core::prepareProgram(P, Config);
  if (Prep.Prune.Removed > 0) {
    auto KarrIt = Prep.Prune.BySource.find("karr");
    uint32_t KarrOnly =
        KarrIt != Prep.Prune.BySource.end() ? KarrIt->second : 0;
    std::printf("pruned %u statically dead edge(s)", Prep.Prune.Removed);
    if (KarrOnly > 0)
      std::printf(" (%u affine-only)", KarrOnly);
    std::printf("\n");
  }
  if (Prep.Fused) {
    const analysis::FusionStats &FS = Prep.Fusion;
    std::printf("fused %u edge(s) into %u transaction(s); alphabet "
                "%u -> %u, reachable locations %u -> %u\n",
                FS.FusedEdges, FS.Transactions, FS.AlphabetBefore,
                FS.AlphabetAfter, FS.StatesBefore, FS.StatesAfter);
  }

  if (Opts.Simulate > 0) {
    auto Bug = prog::randomWalkForBug(P, /*Seed=*/1, Opts.Simulate);
    if (Bug) {
      std::printf("random testing (%llu walks): BUG FOUND\n",
                  static_cast<unsigned long long>(Opts.Simulate));
      if (Opts.PrintWitness)
        for (automata::Letter L : *Bug)
          std::printf("  %s\n", P.action(L).Name.c_str());
      return 1;
    }
    std::printf("random testing (%llu walks): no bug found; verifying...\n",
                static_cast<unsigned long long>(Opts.Simulate));
  }

  // Shared commutativity oracle (reduction/CommutOracle.h). The disk
  // namespace fingerprint is taken from the prepared program, the very
  // program the verifiers run (parallel workers prepare the identical
  // program from the same source and config). The table outlives both
  // branches below; verifiers hold non-owning pointers. The sequential
  // portfolio never gets it, so its as-if-parallel aggregate stays
  // comparable.
  red::CommutOracle CommutTable;
  red::CommutOracle *Oracle =
      Opts.CommutCache == "off" ? nullptr : &CommutTable;
  bool CommutDisk =
      Opts.CommutCache == "persist" || Opts.CommutCache == "conservative";
  if (CommutDisk) {
    size_t Loaded =
        CommutTable.bindDisk(Opts.CacheDir, persist::fingerprintProgram(P),
                             Opts.CommutCache == "conservative");
    if (Opts.CacheStats)
      std::printf("commut cache: loaded %zu persisted answer(s)\n", Loaded);
  }

  auto ExitCode = [](core::Verdict V) {
    return V == core::Verdict::Correct     ? 0
           : V == core::Verdict::Incorrect ? 1
                                           : 3;
  };
  int Exit = 0;
  if (!Opts.Order.empty()) {
    if (Opts.Order == "baseline") {
      Config.UseSleepSets = false;
      Config.UsePersistentSets = false;
      Config.ProofSensitive = false;
    }
    Config.SharedCommut = Oracle;
    core::VerificationResult R = core::runSingleOrder(P, Config, Opts.Order);
    Prep.record(R.Stats);
    report(R, P, Opts, Opts.Order);
    if (Opts.CacheStats)
      reportCacheStats(R.Stats);
    Exit = ExitCode(R.V);
  } else if (Opts.ParallelPortfolio) {
    Config.SharedCommut = Oracle;
    runtime::ParallelPortfolioResult R =
        runtime::runPortfolioParallel(Buffer.str(), Config, Opts.Jobs);
    report(R.Best, P, Opts, R.BestOrder);
    std::printf("portfolio: %u job(s), wall %.3fs, race cost %.3fs\n",
                R.Jobs, R.WallSeconds, R.sumSeconds());
    for (const core::PortfolioEntry &E : R.Entries)
      std::printf("  %-10s %-10s %7.3fs\n", E.OrderName.c_str(),
                  core::verdictName(E.Result.V).c_str(), E.Result.Seconds);
    if (Opts.PrintStats)
      std::printf("merged stats: %s\n", R.Merged.str().c_str());
    if (Opts.CacheStats)
      reportCacheStats(R.Merged);
    Exit = ExitCode(R.Best.V);
  } else {
    core::PortfolioResult R = core::runPortfolio(P, Config);
    Prep.record(R.Best.Stats);
    report(R.Best, P, Opts, R.BestOrder);
    if (Opts.CacheStats) {
      // Cache traffic is per order in the sequential sweep; aggregate it.
      Statistics All;
      for (const core::PortfolioEntry &E : R.Entries)
        All.mergeFrom(E.Result.Stats);
      reportCacheStats(All);
    }
    Exit = ExitCode(R.Best.V);
  }
  if (CommutDisk) {
    CommutTable.flushDisk();
    if (Opts.CacheStats)
      std::printf("commut cache: flushed %zu answer(s)\n",
                  CommutTable.size());
  }
  return Exit;
}
