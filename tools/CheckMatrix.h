//===- tools/CheckMatrix.h - Table-driven differential check matrix -------===//
///
/// \file
/// One differential harness for every optimization layer. Each layer —
/// static tiers, the parallel portfolio, the proof cache, transaction
/// fusion, the shared commutativity oracle, incremental SMT sessions — is
/// a sound variant of the same proof check (PAPER.md Sec. 7.2,
/// Algorithm 2), so each gate asks the same question: do the decisive
/// verdicts agree with each other and with the ground truth? A group names
/// the variants to compare as data (arms); the matrix runs every arm on
/// every workload and checks
///
///   * every arm returns the same verdict on a workload (an arm left
///     Unknown or Timeout while another decides is a disagreement), and
///   * a decisive verdict matches WorkloadInstance::ExpectedCorrect,
///
/// then hands the counter totals to the group's own assertions (e.g. "the
/// shared oracle strictly cuts semantic solver calls"). `seqver
/// --check=<group|all>[,quick]` runs the groups; the differential gtests
/// run arm subsets of them.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_TOOLS_CHECKMATRIX_H
#define SEQVER_TOOLS_CHECKMATRIX_H

#include "core/Verifier.h"
#include "support/Statistics.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace seqver {
namespace check {

/// How an arm verifies one workload.
enum class Runner : uint8_t {
  Seq,          ///< the single "seq" order (core::runSingleOrder)
  SeqPortfolio, ///< the sequential as-if-parallel portfolio
  Parallel,     ///< the racing portfolio (runtime::runPortfolioParallel)
};

/// The shared commutativity oracle (reduction/CommutOracle.h) of an arm.
enum class OracleMode : uint8_t {
  Off,      ///< private per-checker caches only
  Shared,   ///< one fresh in-memory table for the run
  DiskCold, ///< a fresh table bound to the group directory, flushed after
  DiskWarm, ///< a fresh table reloading what earlier arms flushed
};

/// One variant of the proof check.
struct Arm {
  std::string Name;
  /// Change to the default VerifierConfig, prepare flags included (null =
  /// defaults). The matrix's timeout and rand seed are applied first.
  std::function<void(core::VerifierConfig &)> Delta = nullptr;
  Runner Run = Runner::Seq;
  /// Worker threads of a Parallel arm; 0 = MatrixOptions::Jobs.
  unsigned Jobs = 0;
  OracleMode Oracle = OracleMode::Off;
  /// Verify against the group's proof-cache directory. It starts empty, so
  /// the first such arm on a program runs cold and later ones warm.
  bool ProofCache = false;
  /// Run only on workloads 0, 3, 6, ... of the (possibly sampled) suite.
  bool EveryThird = false;
};

/// One arm's outcome on one workload.
struct ArmRun {
  bool Ran = false; ///< false: an EveryThird arm skipped this workload
  core::Verdict V = core::Verdict::Unknown;
  /// The run's counters (portfolios: merged over the orders), the
  /// preparation counters once (core::PrepareStats::record), wall_us (the
  /// run's wall time), and, for DiskWarm arms, oracle_loaded (answers
  /// reloaded from disk).
  Statistics Stats;
};

struct Row {
  workloads::WorkloadInstance W;
  std::vector<ArmRun> Runs; ///< indexed like Group::Arms
};

struct MatrixOptions {
  double TimeoutSeconds = 10;
  unsigned Jobs = 0; ///< default for Parallel arms; 0 = all cores
  uint64_t RandSeedBase = 0;
  bool Quick = false; ///< sample every third workload of the suite
  FILE *Out = nullptr; ///< per-workload table and summary; null = silent
};

struct GroupResult;
struct Group;

/// Per-workload table column: one counter of one arm.
struct Column {
  std::string Header;
  std::string Arm;
  std::string Counter;
};

/// A named arm list plus its group-level assertions.
struct Group {
  std::string Name;
  std::vector<Arm> Arms;
  std::vector<workloads::WorkloadInstance> (*Suite)() = nullptr;
  std::vector<Column> Columns;
  /// Group-level assertions and summary over the finished table: prints to
  /// O.Out (when set) and appends to R.Failures. Dir is the group's
  /// scratch directory (proof cache and oracle records). Null = none.
  void (*Finish)(GroupResult &R, const MatrixOptions &O,
                 const std::string &Dir) = nullptr;
};

struct GroupResult {
  std::vector<std::string> ArmNames;
  std::vector<Row> Rows;
  /// Verdict disagreements, wrong verdicts and failed group assertions,
  /// each naming its workload and arms. Empty = the group passed.
  std::vector<std::string> Failures;

  bool ok() const { return Failures.empty(); }
  /// Sum of Counter over every workload the arm ran on.
  int64_t total(const std::string &Arm, const std::string &Counter) const;
  const ArmRun &run(const Row &R, const std::string &Arm) const;
};

/// The six gate groups: tiers, parallel, cache, fusion, commut,
/// incremental.
const std::vector<Group> &groups();
/// The group called Name, or null.
const Group *findGroup(const std::string &Name);
/// G restricted to the named arms (in G's order), without G's group-level
/// assertions, which may read arms the subset lacks.
Group selectArms(const Group &G, const std::vector<std::string> &Names);

/// Runs G over Suite (sampled when O.Quick).
GroupResult runGroup(const Group &G,
                     std::vector<workloads::WorkloadInstance> Suite,
                     const MatrixOptions &O);
/// Runs G over its own suite.
GroupResult runGroup(const Group &G, const MatrixOptions &O);

} // namespace check
} // namespace seqver

#endif // SEQVER_TOOLS_CHECKMATRIX_H
