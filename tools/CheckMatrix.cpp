//===- tools/CheckMatrix.cpp - Table-driven differential check matrix -----===//

#include "CheckMatrix.h"

#include "core/Portfolio.h"
#include "core/Prepare.h"
#include "persist/Fingerprint.h"
#include "persist/ProofCache.h"
#include "program/CfgBuilder.h"
#include "reduction/CommutOracle.h"
#include "runtime/ParallelPortfolio.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdarg>
#include <deque>
#include <filesystem>
#include <memory>

#include <unistd.h>

using namespace seqver;
using namespace seqver::check;
using core::Verdict;
using core::VerifierConfig;

namespace {

void emit(const MatrixOptions &O, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));
void emit(const MatrixOptions &O, const char *Fmt, ...) {
  if (!O.Out)
    return;
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(O.Out, Fmt, Args);
  va_end(Args);
}

double percentSaved(int64_t Before, int64_t After) {
  return 100.0 * static_cast<double>(Before - After) /
         static_cast<double>(Before);
}

std::vector<workloads::WorkloadInstance> portfolioSuites() {
  std::vector<workloads::WorkloadInstance> Suite =
      workloads::svcompLikeSuite();
  for (auto &W : workloads::weaverLikeSuite())
    Suite.push_back(std::move(W));
  return Suite;
}

std::vector<workloads::WorkloadInstance> allSuites() {
  std::vector<workloads::WorkloadInstance> Suite = portfolioSuites();
  for (auto &W : workloads::loopHeavySuite())
    Suite.push_back(std::move(W));
  for (auto &W : workloads::affineSuite())
    Suite.push_back(std::move(W));
  return Suite;
}

//===----------------------------------------------------------------------===//
// Group-level assertions and summaries
//===----------------------------------------------------------------------===//

void finishTiers(GroupResult &R, const MatrixOptions &O,
                 const std::string &) {
  int64_t SemFull = R.total("full", "semantic_commut_checks");
  int64_t SemNoKarr = R.total("no-karr", "semantic_commut_checks");
  emit(O, "\ninvariant-tier settled queries: %lld octagon, %lld karr\n",
       static_cast<long long>(R.total("full", "commut_octagon")),
       static_cast<long long>(R.total("full", "commut_karr")));
  emit(O, "semantic checks: %lld full stack, %lld without karr",
       static_cast<long long>(SemFull), static_cast<long long>(SemNoKarr));
  if (SemNoKarr > 0)
    emit(O, " (%.1f%% saved)", percentSaved(SemNoKarr, SemFull));
  emit(O,
       "\nrefinement rounds: %lld seeded (%lld karr-seeded "
       "predicates), %lld interval-only baseline\n",
       static_cast<long long>(R.total("seeded", "rounds")),
       static_cast<long long>(R.total("seeded", "karr_seeded")),
       static_cast<long long>(R.total("int-only", "rounds")));
}

void finishParallel(GroupResult &R, const MatrixOptions &O,
                    const std::string &) {
  double SeqSum =
      static_cast<double>(R.total("sequential", "wall_us")) / 1e6;
  double ParWall = static_cast<double>(R.total("parallel", "wall_us")) / 1e6;
  emit(O,
       "\nsequential sum-of-orders: %.2fs, parallel wall-clock: "
       "%.2fs",
       SeqSum, ParWall);
  if (ParWall > 0)
    emit(O, " (%.2fx speedup)", SeqSum / ParWall);
  emit(O, "\n");
}

/// The safe loop_sum proof stored under the *buggy* variant's fingerprint
/// with verdict "correct": the warm run must still come out incorrect,
/// because cached predicates only enter the proof automaton through
/// SMT-checked Hoare triples. Returns a failure message, empty on success.
std::string poisonedEntryRow(const MatrixOptions &O, const std::string &Dir) {
  smt::TermManager SafeTM, BugTM;
  prog::BuildResult Safe =
      prog::buildFromSource(workloads::loopSumSource(4), SafeTM);
  prog::BuildResult Bug =
      prog::buildFromSource(workloads::loopSumSource(4, true), BugTM);
  if (!Safe.ok() || !Bug.ok())
    return "loop_sum/poisoned: build failed";
  VerifierConfig Config;
  Config.TimeoutSeconds = O.TimeoutSeconds;
  Config.CacheDir = Dir;
  core::runSingleOrder(*Safe.Program, Config, "seq"); // stores the proof
  persist::ProofCache Cache(Dir);
  persist::StoredProof SafeProof;
  if (!Cache.load(persist::fingerprintProgram(*Safe.Program), SafeProof))
    return "loop_sum/poisoned: no stored safe proof";
  if (!Cache.store(persist::fingerprintProgram(*Bug.Program), SafeProof))
    return "loop_sum/poisoned: cannot store the poisoned record";
  core::VerificationResult Poisoned =
      core::runSingleOrder(*Bug.Program, Config, "seq");
  bool Rejected = Poisoned.V == Verdict::Incorrect &&
                  Poisoned.Stats.get("cache_hits") >= 1;
  emit(O, "%-22s correct* -> %s, %d round(s), %lld seeded%s\n",
       "loop_sum/poisoned", core::verdictName(Poisoned.V).c_str(),
       Poisoned.Rounds,
       static_cast<long long>(Poisoned.Stats.get("cache_seeded")),
       Rejected ? "" : "  << POISON NOT REJECTED");
  return Rejected ? ""
                  : "loop_sum/poisoned: poisoned cache entry was not "
                    "rejected soundly";
}

void finishCache(GroupResult &R, const MatrixOptions &O,
                 const std::string &Dir) {
  std::string Poison = poisonedEntryRow(O, Dir);
  int StrictlyFewer = 0;
  for (const Row &Row : R.Rows) {
    const ArmRun &Cold = R.run(Row, "cold"), &Warm = R.run(Row, "warm");
    if (Warm.V == Verdict::Correct &&
        Warm.Stats.get("rounds") < Cold.Stats.get("rounds"))
      ++StrictlyFewer;
  }
  int64_t Hits = R.total("warm", "cache_hits");
  emit(O,
       "\ncache: %lld miss(es) cold, %lld hit(s) warm, %lld seeded "
       "predicate(s), %lld refinement round(s) saved (%d workload(s) "
       "strictly fewer rounds warm)\n",
       static_cast<long long>(R.total("cold", "cache_misses")),
       static_cast<long long>(Hits),
       static_cast<long long>(R.total("warm", "cache_seeded")),
       static_cast<long long>(R.total("warm", "rounds_saved_warm")),
       StrictlyFewer);
  if (!Poison.empty())
    R.Failures.push_back(Poison);
  if (Hits == 0)
    R.Failures.push_back("warm runs never hit the cache");
}

void finishFusion(GroupResult &R, const MatrixOptions &O,
                  const std::string &) {
  int64_t Unfused = R.total("unfused", "visited_total");
  int64_t Fused = R.total("fused", "visited_total");
  emit(O,
       "\nfusion: %lld edge(s) into %lld transaction(s); DFS states "
       "%lld unfused vs %lld fused",
       static_cast<long long>(R.total("fused", "fusion_fused_edges")),
       static_cast<long long>(R.total("fused", "fusion_transactions")),
       static_cast<long long>(Unfused), static_cast<long long>(Fused));
  if (Unfused > 0 && Fused < Unfused)
    emit(O, " (%.1f%% fewer)", percentSaved(Unfused, Fused));
  emit(O, "\n");
  // Fusion must strictly shrink the loop families wherever their unfused
  // DFS explored anything (visited_total counts proof-valid rounds only,
  // so a sample of bug instances alone has nothing to shrink).
  for (const std::string Family : {"loop_heavy", "affine"}) {
    int64_t U = 0, F = 0;
    for (const Row &Row : R.Rows) {
      if (Row.W.Family != Family)
        continue;
      U += R.run(Row, "unfused").Stats.get("visited_total");
      F += R.run(Row, "fused").Stats.get("visited_total");
    }
    if (U > 0 && F >= U)
      R.Failures.push_back(Family + ": fusion did not shrink DFS states (" +
                           std::to_string(U) + " unfused vs " +
                           std::to_string(F) + " fused)");
  }
}

void finishCommut(GroupResult &R, const MatrixOptions &O,
                  const std::string &) {
  int64_t SemOff = R.total("off", "commut_semantic");
  int64_t SemShared = R.total("shared", "commut_semantic");
  int64_t SemCold = R.total("cold", "commut_semantic");
  int64_t SemWarm = R.total("warm", "commut_semantic");
  int64_t WarmLoaded = R.total("warm", "oracle_loaded");
  emit(O,
       "\nsemantic solver calls (aggregate across workers): %lld "
       "off, %lld shared",
       static_cast<long long>(SemOff), static_cast<long long>(SemShared));
  if (SemOff > 0)
    emit(O, " (%.1f%% saved, %lld shared hit(s))",
         percentSaved(SemOff, SemShared),
         static_cast<long long>(R.total("shared", "commut_shared_hits")));
  emit(O, "\npersisted: %lld cold, %lld warm",
       static_cast<long long>(SemCold), static_cast<long long>(SemWarm));
  if (SemCold > 0)
    emit(O, " (%.1f%% saved; %lld entr%s loaded, %lld hit(s))",
         percentSaved(SemCold, SemWarm), static_cast<long long>(WarmLoaded),
         WarmLoaded == 1 ? "y" : "ies",
         static_cast<long long>(R.total("warm", "commut_shared_hits")));
  emit(O, "\n");
  if (SemShared >= SemOff)
    R.Failures.push_back(
        "shared oracle did not reduce aggregate semantic solver calls (" +
        std::to_string(SemShared) + " shared vs " + std::to_string(SemOff) +
        " off)");
  if (SemWarm >= SemCold)
    R.Failures.push_back(
        "persisted-warm run did not reduce semantic solver calls (" +
        std::to_string(SemWarm) + " warm vs " + std::to_string(SemCold) +
        " cold)");
}

void finishIncremental(GroupResult &R, const MatrixOptions &O,
                       const std::string &) {
  int64_t SolverUsInc = R.total("incremental", "smt_solver_us");
  int64_t SolverUsFresh = R.total("fresh", "smt_solver_us");
  int64_t Sessions = R.total("incremental", "smt_sessions");
  size_t ParallelArms = 0;
  for (const Row &Row : R.Rows)
    ParallelArms += R.run(Row, "par-inc").Ran;
  emit(O, "\nsolver wall-seconds: %.3fs incremental, %.3fs fresh",
       static_cast<double>(SolverUsInc) / 1e6,
       static_cast<double>(SolverUsFresh) / 1e6);
  if (SolverUsFresh > 0)
    emit(O, " (%.1f%% saved)", percentSaved(SolverUsFresh, SolverUsInc));
  emit(O,
       "\nsessions: %lld opened, %lld assumption solve(s), %lld "
       "learned clause(s) retained; %zu parallel arm(s)\n",
       static_cast<long long>(Sessions),
       static_cast<long long>(
           R.total("incremental", "smt_assumption_solves")),
       static_cast<long long>(R.total("incremental", "smt_clauses_retained")),
       ParallelArms);
  if (Sessions == 0)
    R.Failures.push_back("incremental arm never opened a session");
}

//===----------------------------------------------------------------------===//
// Running one workload
//===----------------------------------------------------------------------===//

/// The workload built and prepared under one config. Arms that prepare
/// alike (core::samePreparation) share it and its TermManager: one build
/// per program variant, and term ids that depend only on the arms run
/// before.
struct PreparedProgram {
  VerifierConfig Config;
  std::unique_ptr<smt::TermManager> TM;
  prog::BuildResult Build;
  core::PrepareStats Stats;
};

/// The workload prepared under Config, built on first use. Null when the
/// source does not build (Error says why).
const PreparedProgram *
preparedFor(std::deque<PreparedProgram> &Cache, const std::string &Source,
            const VerifierConfig &Config, std::string &Error) {
  for (const PreparedProgram &P : Cache)
    if (core::samePreparation(P.Config, Config))
      return &P;
  PreparedProgram P;
  P.Config = Config;
  P.TM = std::make_unique<smt::TermManager>();
  P.Build = prog::buildFromSource(Source, *P.TM);
  if (!P.Build.ok()) {
    Error = P.Build.Error;
    return nullptr;
  }
  P.Stats = core::prepareProgram(*P.Build.Program, Config);
  Cache.push_back(std::move(P));
  return &Cache.back();
}

ArmRun runArm(const Arm &A, const workloads::WorkloadInstance &W,
              std::deque<PreparedProgram> &Cache, const MatrixOptions &O,
              const std::string &Dir, std::string &Error) {
  ArmRun Run;
  Run.Ran = true;
  VerifierConfig Config;
  Config.TimeoutSeconds = O.TimeoutSeconds;
  Config.RandSeedBase = O.RandSeedBase;
  if (A.Delta)
    A.Delta(Config);
  if (A.ProofCache)
    Config.CacheDir = Dir;

  bool Disk = A.Oracle == OracleMode::DiskCold ||
              A.Oracle == OracleMode::DiskWarm;
  const PreparedProgram *P = nullptr;
  if (A.Run != Runner::Parallel || Disk) {
    P = preparedFor(Cache, W.Source, Config, Error);
    if (!P)
      return Run;
  }
  red::CommutOracle Oracle;
  if (A.Oracle != OracleMode::Off)
    Config.SharedCommut = &Oracle;
  if (Disk) {
    // The disk namespace is the prepared program's fingerprint: the very
    // program every verifier of this arm runs.
    size_t Loaded =
        Oracle.bindDisk(Dir, persist::fingerprintProgram(*P->Build.Program));
    if (A.Oracle == OracleMode::DiskWarm)
      Run.Stats.add("oracle_loaded", static_cast<int64_t>(Loaded));
  }

  Timer Wall;
  switch (A.Run) {
  case Runner::Seq: {
    core::VerificationResult R =
        core::runSingleOrder(*P->Build.Program, Config, "seq");
    Run.V = R.V;
    Run.Stats.mergeFrom(R.Stats);
    P->Stats.record(Run.Stats);
    break;
  }
  case Runner::SeqPortfolio: {
    core::PortfolioResult R = core::runPortfolio(*P->Build.Program, Config);
    Run.V = R.Best.V;
    for (const core::PortfolioEntry &E : R.Entries)
      Run.Stats.mergeFrom(E.Result.Stats);
    P->Stats.record(Run.Stats);
    break;
  }
  case Runner::Parallel: {
    runtime::ParallelPortfolioResult R = runtime::runPortfolioParallel(
        W.Source, Config, A.Jobs ? A.Jobs : O.Jobs);
    Run.V = R.Best.V;
    Run.Stats.mergeFrom(R.Merged);
    break;
  }
  }
  Run.Stats.add("wall_us", static_cast<int64_t>(Wall.seconds() * 1e6));
  if (A.Oracle == OracleMode::DiskCold)
    Oracle.flushDisk();
  return Run;
}

/// Verdict agreement and ground truth for one finished row: a failure
/// message naming the workload and arms, or empty. Every arm that ran must
/// return the same verdict, undecided ones included (an arm that loses
/// coverage and falls back to Unknown or Timeout while another decides is
/// a disagreement), and a decisive verdict must match the ground truth.
std::string judgeRow(const Group &G, const Row &Row) {
  std::string Listing;
  std::vector<std::string> Wrong;
  bool HaveFirst = false, Disagree = false;
  Verdict First = Verdict::Unknown;
  for (size_t J = 0; J < G.Arms.size(); ++J) {
    const ArmRun &Run = Row.Runs[J];
    if (!Run.Ran)
      continue;
    Listing += " " + G.Arms[J].Name + "=" + core::verdictName(Run.V);
    if (!HaveFirst) {
      First = Run.V;
      HaveFirst = true;
    }
    Disagree |= Run.V != First;
    if (core::isDecisive(Run.V) &&
        (Run.V == Verdict::Correct) != Row.W.ExpectedCorrect)
      Wrong.push_back(G.Arms[J].Name);
  }
  const char *Expected = Row.W.ExpectedCorrect ? "correct" : "incorrect";
  if (Disagree)
    return Row.W.Name + ": arms disagree:" + Listing + " (expected " +
           Expected + ")";
  if (Wrong.empty())
    return "";
  std::string Names;
  for (const std::string &N : Wrong)
    Names += (Names.empty() ? "" : ", ") + N;
  return Row.W.Name + ": " + Names + " say " + core::verdictName(First) +
         ", expected " + Expected;
}

int columnWidth(const std::string &Header, int Min) {
  return std::max(Min, static_cast<int>(Header.size()));
}

} // namespace

//===----------------------------------------------------------------------===//
// GroupResult
//===----------------------------------------------------------------------===//

const ArmRun &GroupResult::run(const Row &R, const std::string &Arm) const {
  static const ArmRun NotRun;
  size_t J = static_cast<size_t>(
      std::find(ArmNames.begin(), ArmNames.end(), Arm) - ArmNames.begin());
  return J < R.Runs.size() ? R.Runs[J] : NotRun;
}

int64_t GroupResult::total(const std::string &Arm,
                           const std::string &Counter) const {
  int64_t Sum = 0;
  for (const Row &R : Rows)
    Sum += run(R, Arm).Stats.get(Counter);
  return Sum;
}

//===----------------------------------------------------------------------===//
// The six groups
//===----------------------------------------------------------------------===//

const std::vector<Group> &seqver::check::groups() {
  using C = VerifierConfig;
  auto Prune = [](C &Config) { Config.PruneDeadEdges = true; };
  auto PruneFuse = [](C &Config) {
    Config.PruneDeadEdges = true;
    Config.FuseTransactions = true;
  };
  auto Fresh = [](C &Config) { Config.IncrementalSmt = false; };
  static const std::vector<Group> All = {
      // Static tiers: the full interval + octagon + Karr stack, Karr off,
      // full plus octagon/Karr proof seeding, and interval-only unseeded
      // (the rounds baseline for seeding).
      {.Name = "tiers",
       .Arms = {{.Name = "full"},
                {.Name = "no-karr",
                 .Delta = [](C &Config) { Config.KarrTier = false; }},
                {.Name = "seeded",
                 .Delta = [](C &Config) { Config.SeedProof = true; }},
                {.Name = "int-only",
                 .Delta =
                     [](C &Config) {
                       Config.OctagonTier = false;
                       Config.KarrTier = false;
                     }}},
       .Suite = allSuites,
       .Columns = {{"karr", "full", "commut_karr"},
                   {"sem-f", "full", "semantic_commut_checks"},
                   {"sem-nk", "no-karr", "semantic_commut_checks"},
                   {"rd-s", "seeded", "rounds"},
                   {"rd-b", "int-only", "rounds"}},
       .Finish = finishTiers},
      // The sequential as-if-parallel portfolio against the racing one.
      {.Name = "parallel",
       .Arms = {{.Name = "sequential", .Run = Runner::SeqPortfolio},
                {.Name = "parallel", .Run = Runner::Parallel}},
       .Suite = portfolioSuites,
       .Columns = {{"seq-us", "sequential", "wall_us"},
                   {"par-us", "parallel", "wall_us"}},
       .Finish = finishParallel},
      // The proof cache cold, then warm on the same directory.
      {.Name = "cache",
       .Arms = {{.Name = "cold", .ProofCache = true},
                {.Name = "warm", .ProofCache = true}},
       .Suite = allSuites,
       .Columns = {{"rd-c", "cold", "rounds"},
                   {"rd-w", "warm", "rounds"},
                   {"seeded", "warm", "cache_seeded"}},
       .Finish = finishCache},
      // Pruned unfused vs pruned fused, sequentially, and the racing
      // portfolio preparing the fused program in every worker.
      {.Name = "fusion",
       .Arms = {{.Name = "unfused", .Delta = Prune},
                {.Name = "fused", .Delta = PruneFuse},
                {.Name = "par-fused",
                 .Delta = PruneFuse,
                 .Run = Runner::Parallel}},
       .Suite = allSuites,
       .Columns = {{"vis-u", "unfused", "visited_total"},
                   {"vis-f", "fused", "visited_total"},
                   {"txn", "fused", "fusion_transactions"}},
       .Finish = finishFusion},
      // The racing portfolio with the commutativity oracle off, shared in
      // memory, persisted cold and reloaded warm.
      {.Name = "commut",
       .Arms = {{.Name = "off", .Run = Runner::Parallel},
                {.Name = "shared",
                 .Run = Runner::Parallel,
                 .Oracle = OracleMode::Shared},
                {.Name = "cold",
                 .Run = Runner::Parallel,
                 .Oracle = OracleMode::DiskCold},
                {.Name = "warm",
                 .Run = Runner::Parallel,
                 .Oracle = OracleMode::DiskWarm}},
       .Suite = allSuites,
       .Columns = {{"sem-off", "off", "commut_semantic"},
                   {"sem-sh", "shared", "commut_semantic"},
                   {"sem-w", "warm", "commut_semantic"},
                   {"hits", "shared", "commut_shared_hits"}},
       .Finish = finishCommut},
      // Incremental SMT sessions against one fresh solver per query, and
      // on every third workload both under the 2-job racing portfolio,
      // where losers are cancelled mid-session.
      {.Name = "incremental",
       .Arms = {{.Name = "incremental"},
                {.Name = "fresh", .Delta = Fresh},
                {.Name = "par-inc",
                 .Run = Runner::Parallel,
                 .Jobs = 2,
                 .EveryThird = true},
                {.Name = "par-fresh",
                 .Delta = Fresh,
                 .Run = Runner::Parallel,
                 .Jobs = 2,
                 .EveryThird = true}},
       .Suite = allSuites,
       .Columns = {{"slv-inc", "incremental", "smt_solver_us"},
                   {"slv-frsh", "fresh", "smt_solver_us"},
                   {"sess", "incremental", "smt_sessions"},
                   {"asolve", "incremental", "smt_assumption_solves"}},
       .Finish = finishIncremental},
  };
  return All;
}

const Group *seqver::check::findGroup(const std::string &Name) {
  for (const Group &G : groups())
    if (G.Name == Name)
      return &G;
  return nullptr;
}

Group seqver::check::selectArms(const Group &G,
                                const std::vector<std::string> &Names) {
  Group Out;
  Out.Name = G.Name;
  Out.Suite = G.Suite;
  for (const Arm &A : G.Arms)
    if (std::find(Names.begin(), Names.end(), A.Name) != Names.end())
      Out.Arms.push_back(A);
  for (const Column &Col : G.Columns)
    if (std::find(Names.begin(), Names.end(), Col.Arm) != Names.end())
      Out.Columns.push_back(Col);
  return Out;
}

GroupResult seqver::check::runGroup(const Group &G, const MatrixOptions &O) {
  return runGroup(G, G.Suite(), O);
}

GroupResult
seqver::check::runGroup(const Group &G,
                        std::vector<workloads::WorkloadInstance> Suite,
                        const MatrixOptions &O) {
  if (O.Quick) {
    // Every third workload still covers each family.
    std::vector<workloads::WorkloadInstance> Sample;
    for (size_t I = 0; I < Suite.size(); I += 3)
      Sample.push_back(Suite[I]);
    Suite = std::move(Sample);
  }

  GroupResult R;
  for (const Arm &A : G.Arms)
    R.ArmNames.push_back(A.Name);
  // A self-test, not a service cache: the directory starts empty.
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("seqver-check-" + G.Name + "-" +
                      std::to_string(getpid())))
                        .string();
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);

  emit(O, "== %s ==\n%-22s", G.Name.c_str(), "workload");
  for (const Arm &A : G.Arms)
    emit(O, " %-*s", columnWidth(A.Name, 10), A.Name.c_str());
  for (const Column &Col : G.Columns)
    emit(O, " %*s", columnWidth(Col.Header, 7), Col.Header.c_str());
  emit(O, "\n");

  for (size_t I = 0; I < Suite.size(); ++I) {
    Row Current;
    Current.W = std::move(Suite[I]);
    Current.Runs.resize(G.Arms.size());
    std::deque<PreparedProgram> Cache; // push_back keeps addresses
    std::string BuildError;
    for (size_t J = 0; J < G.Arms.size() && BuildError.empty(); ++J) {
      if (G.Arms[J].EveryThird && I % 3 != 0)
        continue;
      Current.Runs[J] = runArm(G.Arms[J], Current.W, Cache, O, Dir, BuildError);
    }
    std::string Failure =
        BuildError.empty() ? judgeRow(G, Current)
                           : Current.W.Name + ": build error: " + BuildError;

    emit(O, "%-22s", Current.W.Name.c_str());
    for (size_t J = 0; J < G.Arms.size(); ++J) {
      const ArmRun &Run = Current.Runs[J];
      emit(O, " %-*s", columnWidth(G.Arms[J].Name, 10),
           Run.Ran ? core::verdictName(Run.V).c_str() : "-");
    }
    R.Rows.push_back(std::move(Current));
    for (const Column &Col : G.Columns)
      emit(O, " %*lld", columnWidth(Col.Header, 7),
           static_cast<long long>(
               R.run(R.Rows.back(), Col.Arm).Stats.get(Col.Counter)));
    emit(O, "%s\n", Failure.empty() ? "" : "  << VERDICT MISMATCH");
    if (!Failure.empty())
      R.Failures.push_back(Failure);
  }

  // Agreeing undecided arms are no disagreement, but a workload nobody
  // decides checks nothing: say so.
  size_t Undecided = 0;
  for (const Row &Row : R.Rows)
    Undecided += std::none_of(Row.Runs.begin(), Row.Runs.end(),
                              [](const ArmRun &Run) {
                                return Run.Ran && core::isDecisive(Run.V);
                              });
  if (Undecided > 0)
    emit(O, "%s: %zu workload(s) undecided by every arm\n", G.Name.c_str(),
         Undecided);
  if (G.Finish)
    G.Finish(R, O, Dir);
  std::filesystem::remove_all(Dir, EC);
  if (R.ok())
    emit(O, "%s: all verdicts agree\n", G.Name.c_str());
  return R;
}
