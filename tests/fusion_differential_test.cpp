//===- tests/fusion_differential_test.cpp - Fused vs unfused gate ---------===//
///
/// \file
/// Differential suite for transaction fusion (analysis/Fusion.h), run
/// through the check matrix's fusion group (tools/CheckMatrix.h): for
/// every tier-1 workload, the verifier must reach the same verdict on the
/// fused program as on the unfused one — sequentially on the deterministic
/// "seq" order, and through the parallel portfolio whose workers prepare
/// the fused program themselves (VerifierConfig::FuseTransactions). Fusion
/// is a pure reduction: it must never flip a verdict, and on the
/// loop-heavy and affine suites it must strictly shrink the explored DFS
/// state count. The sequential runs are deterministic, so each suite's DFS
/// states and fusion counts are pinned exactly.
///
//===----------------------------------------------------------------------===//

#include "CheckMatrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace seqver;

namespace {

check::MatrixOptions gateOptions() {
  check::MatrixOptions O;
  O.TimeoutSeconds = 20;
  O.Jobs = 2;
  return O;
}

/// Runs the named arms of the fusion group over Suite; every decisive
/// verdict must agree and match ground truth.
check::GroupResult runArms(const std::vector<std::string> &Arms,
                           std::vector<workloads::WorkloadInstance> Suite) {
  check::GroupResult R =
      check::runGroup(check::selectArms(*check::findGroup("fusion"), Arms),
                      std::move(Suite), gateOptions());
  for (const std::string &F : R.Failures)
    ADD_FAILURE() << F;
  return R;
}

/// A suite's pinned fusion work under "seq": DFS states summed over every
/// round (visited_total) unfused and fused, and the fused edges and
/// transactions of the fusion pass.
struct FusionPins {
  int64_t VisitedUnfused;
  int64_t VisitedFused;
  int64_t FusedEdges;
  int64_t Transactions;
};

void runSuite(std::vector<workloads::WorkloadInstance> Suite,
              const FusionPins &Pins, bool RequireStrictShrink) {
  check::GroupResult R = runArms({"unfused", "fused"}, std::move(Suite));
  int64_t VisitedUnfused = R.total("unfused", "visited_total");
  int64_t VisitedFused = R.total("fused", "visited_total");
  EXPECT_EQ(VisitedUnfused, Pins.VisitedUnfused);
  EXPECT_EQ(VisitedFused, Pins.VisitedFused);
  EXPECT_EQ(R.total("fused", "fusion_fused_edges"), Pins.FusedEdges);
  EXPECT_EQ(R.total("fused", "fusion_transactions"), Pins.Transactions);
  // Fusion never explores more: fused transactions skip the interleavings
  // the mover analysis proved equivalent.
  EXPECT_LE(VisitedFused, VisitedUnfused);
  if (RequireStrictShrink) {
    EXPECT_LT(VisitedFused, VisitedUnfused);
  }
}

TEST(FusionDifferential, SvcompLikeSuiteVerdictsAgree) {
  runSuite(workloads::svcompLikeSuite(), {19216, 9223, 126, 51},
           /*RequireStrictShrink=*/false);
}

TEST(FusionDifferential, WeaverLikeSuiteVerdictsAgree) {
  runSuite(workloads::weaverLikeSuite(), {83734, 44115, 42, 21},
           /*RequireStrictShrink=*/false);
}

TEST(FusionDifferential, LoopHeavySuiteStrictlyShrinks) {
  runSuite(workloads::loopHeavySuite(), {548, 395, 20, 10},
           /*RequireStrictShrink=*/true);
}

TEST(FusionDifferential, AffineSuiteStrictlyShrinks) {
  runSuite(workloads::affineSuite(), {377, 230, 10, 4},
           /*RequireStrictShrink=*/true);
}

/// The parallel portfolio with in-worker fusion agrees with the unfused
/// sequential baseline on every tier-1 workload, and the fusion counters
/// surface through the merged statistics.
TEST(FusionDifferential, ParallelPortfolioAgreesOnTier1) {
  check::GroupResult R = runArms({"unfused", "par-fused"},
                                 check::findGroup("fusion")->Suite());
  // At least one transaction was fused somewhere in tier 1 and the merged
  // statistics carried the counter through.
  EXPECT_GE(R.total("par-fused", "fusion_transactions"), 1);
}

} // namespace
