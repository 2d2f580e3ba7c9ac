//===- bench/bench_commut_oracle.cpp - Shared commutativity oracle --------===//
///
/// Measures what the shared commutativity oracle (reduction/CommutOracle.h)
/// saves on the parallel portfolio: every workload is raced under four
/// arms — private per-checker caches (the pre-oracle behaviour), one
/// shared in-memory table, persisted-cold (a fresh table bound to an empty
/// disk store, flushed after the race), and persisted-warm (a fresh table
/// that reloads the flushed answers). The headline numbers are the
/// hub-merged `commut_semantic` counts: semantic-tier queries that
/// actually reached the solver, summed over every racing order.
///
/// Suites: all four tier-1 suites minus the bluetooth family. The
/// bluetooth workloads are refinement-bound — their semantic queries
/// carry per-order proof predicates (distinct Phi per racing order) that
/// no sharing scheme can deduplicate — and they dwarf the
/// commutativity-bound rest by an order of magnitude, so including them
/// would only measure noise on top of bench_table1_overview's ground.
///
/// The arms are the `commut` group of the differential check matrix
/// (tools/CheckMatrix.h), run on this suite with the group's own verdict
/// checks; failures go to stderr and do not stop the measurement.
///
/// Writes a flat BENCH_commut_oracle.json (path in argv[1], default
/// BENCH_commut_oracle.json in the working directory) that
/// tools/check_perf.sh diffs against the checked-in baseline at the repo
/// root; losing the shared or persisted-warm savings fails the gate.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "CheckMatrix.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace seqver;
using namespace seqver::bench;

namespace {

/// Aggregate of one arm of the commut check group over the whole suite.
struct ArmTotals {
  int Successful = 0;
  int64_t Semantic = 0;   ///< hub-merged commut_semantic
  int64_t SharedHits = 0; ///< hub-merged commut_shared_hits
  int64_t SmtQueries = 0; ///< hub-merged smt_queries
  double WallSeconds = 0; ///< summed race wall-clock
};

ArmTotals totals(const check::GroupResult &R, const std::string &Arm) {
  ArmTotals T;
  for (const check::Row &Row : R.Rows) {
    core::Verdict V = R.run(Row, Arm).V;
    if (core::isDecisive(V) &&
        (V == core::Verdict::Correct) == Row.W.ExpectedCorrect)
      ++T.Successful;
  }
  T.Semantic = R.total(Arm, "commut_semantic");
  T.SharedHits = R.total(Arm, "commut_shared_hits");
  T.SmtQueries = R.total(Arm, "smt_queries");
  T.WallSeconds = static_cast<double>(R.total(Arm, "wall_us")) / 1e6;
  return T;
}

double dropPct(int64_t Before, int64_t After) {
  return Before <= 0 ? 0.0
                     : 100.0 * static_cast<double>(Before - After) /
                           static_cast<double>(Before);
}

struct JsonWriter {
  std::FILE *F;
  bool First = true;

  void field(const char *Name, double Value) {
    std::fprintf(F, "%s  \"%s\": %.6g", First ? "" : ",\n", Name, Value);
    First = false;
  }
  void field(const char *Name, int64_t Value) {
    std::fprintf(F, "%s  \"%s\": %lld", First ? "" : ",\n", Name,
                 static_cast<long long>(Value));
    First = false;
  }
};

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = argc > 1 ? argv[1] : "BENCH_commut_oracle.json";

  // The commut check group's suites minus the bluetooth family.
  const check::Group &Commut = *check::findGroup("commut");
  std::vector<workloads::WorkloadInstance> Suite;
  for (auto &W : Commut.Suite())
    if (W.Family != "bluetooth")
      Suite.push_back(std::move(W));

  check::MatrixOptions O;
  O.TimeoutSeconds = benchTimeout();
  O.Jobs = 4; // fixed: the race's overlap is being measured
  O.Out = stdout;

  std::printf("== Shared commutativity oracle (parallel portfolio, %u "
              "jobs) ==\n",
              O.Jobs);
  std::printf("(per-instance timeout %.0fs; sem = hub-merged semantic "
              "solver queries)\n\n",
              benchTimeout());
  // The group's four arms in order on every workload: off, shared,
  // persisted cold (flushed after the race), persisted warm (reloaded).
  check::GroupResult R = check::runGroup(Commut, Suite, O);
  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "check failed: %s\n", F.c_str());

  ArmTotals Private = totals(R, "off"), Shared = totals(R, "shared"),
            Cold = totals(R, "cold"), Warm = totals(R, "warm");
  double SharedDrop = dropPct(Private.Semantic, Shared.Semantic);
  double WarmDrop = dropPct(Cold.Semantic, Warm.Semantic);
  std::printf("successful: %d/%zu private, %d/%zu shared, %d/%zu cold, "
              "%d/%zu warm\n",
              Private.Successful, Suite.size(), Shared.Successful,
              Suite.size(), Cold.Successful, Suite.size(), Warm.Successful,
              Suite.size());

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n");
  JsonWriter J{F};
  J.field("schema_version", static_cast<int64_t>(1));
  J.field("instances", static_cast<int64_t>(Suite.size()));
  J.field("jobs", static_cast<int64_t>(O.Jobs));
  J.field("successful_private", static_cast<int64_t>(Private.Successful));
  J.field("successful_shared", static_cast<int64_t>(Shared.Successful));
  J.field("successful_cold", static_cast<int64_t>(Cold.Successful));
  J.field("successful_warm", static_cast<int64_t>(Warm.Successful));
  J.field("commut_semantic_private", Private.Semantic);
  J.field("commut_semantic_shared", Shared.Semantic);
  J.field("commut_semantic_cold", Cold.Semantic);
  J.field("commut_semantic_warm", Warm.Semantic);
  J.field("shared_drop_pct", SharedDrop);
  J.field("warm_drop_pct", WarmDrop);
  J.field("commut_shared_hits_shared", Shared.SharedHits);
  J.field("commut_shared_hits_warm", Warm.SharedHits);
  J.field("warm_entries_loaded", R.total("warm", "oracle_loaded"));
  J.field("smt_queries_private", Private.SmtQueries);
  J.field("smt_queries_shared", Shared.SmtQueries);
  J.field("smt_queries_warm", Warm.SmtQueries);
  J.field("wall_s_private", Private.WallSeconds);
  J.field("wall_s_shared", Shared.WallSeconds);
  J.field("wall_s_cold", Cold.WallSeconds);
  J.field("wall_s_warm", Warm.WallSeconds);
  std::fprintf(F, "\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
