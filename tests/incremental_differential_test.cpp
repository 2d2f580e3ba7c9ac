//===- tests/incremental_differential_test.cpp - Sessions vs fresh gate ---===//
///
/// \file
/// Differential suite for the incremental SMT sessions (smt::Session), run
/// through the check matrix (tools/CheckMatrix.h): for every tier-1
/// workload, the verifier must reach the same verdict with
/// VerifierConfig::IncrementalSmt on (the default: one persistent solver
/// per letter pair / transition letter, queries posed as assumptions) as
/// with it off (one throwaway solver per query). Sessions only change how
/// queries are posed, never their meaning, so a flip means incremental
/// state — a learned clause, a retained theory lemma, a stale memo entry —
/// leaked into a query it does not hold for.
///
/// Every third workload additionally sweeps the four arms of the tiers
/// group (full static stack, Karr off, proof seeding on, interval only)
/// under both modes: the tier configuration decides which queries reach
/// the solver at all, so each arm exercises a different session query
/// stream.
///
//===----------------------------------------------------------------------===//

#include "CheckMatrix.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace seqver;

namespace {

check::MatrixOptions gateOptions() {
  check::MatrixOptions O;
  O.TimeoutSeconds = 20;
  return O;
}

/// Runs G over Suite: every arm must return the same verdict, a decisive
/// one matching ground truth, and each incremental arm must actually have
/// used sessions (unless no query ever reached the solver in its fresh twin).
void runGroup(const check::Group &G,
              std::vector<workloads::WorkloadInstance> Suite,
              bool Quick = false) {
  check::MatrixOptions O = gateOptions();
  O.Quick = Quick;
  check::GroupResult R = check::runGroup(G, std::move(Suite), O);
  for (const std::string &F : R.Failures)
    ADD_FAILURE() << F;
  for (const check::Row &Row : R.Rows) {
    for (size_t J = 0; J + 1 < G.Arms.size(); J += 2) {
      const check::ArmRun &Inc = Row.Runs[J], &Fresh = Row.Runs[J + 1];
      if (Fresh.Stats.get("smt_queries") > 0) {
        EXPECT_GT(Inc.Stats.get("smt_sessions"), 0)
            << Row.W.Name << " (" << G.Arms[J].Name << ")";
      }
    }
  }
}

void runSuite(std::vector<workloads::WorkloadInstance> Suite) {
  runGroup(check::selectArms(*check::findGroup("incremental"),
                             {"incremental", "fresh"}),
           std::move(Suite));
}

TEST(IncrementalDifferential, SvcompLikeSuite) {
  runSuite(workloads::svcompLikeSuite());
}

TEST(IncrementalDifferential, WeaverLikeSuite) {
  runSuite(workloads::weaverLikeSuite());
}

TEST(IncrementalDifferential, LoopHeavySuite) {
  runSuite(workloads::loopHeavySuite());
}

TEST(IncrementalDifferential, AffineSuite) {
  runSuite(workloads::affineSuite());
}

/// The four tiers-group arms, each with sessions on and off, on every
/// third workload of the concatenated tier-1 suites: each arm routes a
/// different query mix into the sessions.
TEST(IncrementalDifferential, TierArms) {
  const check::Group &Tiers = *check::findGroup("tiers");
  check::Group G;
  G.Name = "tiers-x-incremental";
  for (const check::Arm &A : Tiers.Arms) {
    check::Arm Inc = A, Fresh = A;
    Inc.Name += "/inc";
    Fresh.Name += "/fresh";
    Fresh.Delta = [Delta = A.Delta](core::VerifierConfig &Config) {
      if (Delta)
        Delta(Config);
      Config.IncrementalSmt = false;
    };
    G.Arms.push_back(Inc);
    G.Arms.push_back(Fresh);
  }
  runGroup(G, Tiers.Suite(), /*Quick=*/true);
}

} // namespace
