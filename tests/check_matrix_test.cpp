//===- tests/check_matrix_test.cpp - The check matrix can fail ------------===//
///
/// \file
/// A differential gate that cannot fail proves nothing. These tests feed
/// the check matrix (tools/CheckMatrix.h) workloads and arms that must
/// make it fail — a wrong ground truth, an unsound arm — and check that
/// the failure names the workload and the arms involved; plus the
/// matrix's own plumbing (arm selection, every-third arms).
///
//===----------------------------------------------------------------------===//

#include "CheckMatrix.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

using namespace seqver;

namespace {

check::MatrixOptions testOptions() {
  check::MatrixOptions O;
  O.TimeoutSeconds = 20;
  O.Jobs = 2;
  return O;
}

workloads::WorkloadInstance suiteWorkload(const std::string &Name) {
  for (const workloads::WorkloadInstance &W : workloads::svcompLikeSuite())
    if (W.Name == Name)
      return W;
  ADD_FAILURE() << Name << " missing";
  return {};
}

workloads::WorkloadInstance counterWorkload(bool Bug) {
  return suiteWorkload(Bug ? "counter_bug_2x1" : "counter_safe_2x1");
}

TEST(CheckMatrix, SoundArmsOnTrueGroundTruthPass) {
  check::Group G =
      check::selectArms(*check::findGroup("tiers"), {"full", "int-only"});
  check::GroupResult R = check::runGroup(
      G, {counterWorkload(false), counterWorkload(true)}, testOptions());
  EXPECT_TRUE(R.ok()) << R.Failures.front();
  ASSERT_EQ(R.Rows.size(), 2u);
  EXPECT_EQ(R.run(R.Rows[0], "full").V, core::Verdict::Correct);
  EXPECT_EQ(R.run(R.Rows[1], "int-only").V, core::Verdict::Incorrect);
}

TEST(CheckMatrix, FlippedGroundTruthFailsTheGroup) {
  workloads::WorkloadInstance Flipped = counterWorkload(true);
  Flipped.ExpectedCorrect = true; // deliberately wrong
  check::Group G =
      check::selectArms(*check::findGroup("tiers"), {"full", "no-karr"});
  check::GroupResult R = check::runGroup(
      G, {counterWorkload(false), Flipped}, testOptions());
  ASSERT_EQ(R.Failures.size(), 1u);
  const std::string &F = R.Failures.front();
  EXPECT_NE(F.find("counter_bug_2x1"), std::string::npos) << F;
  EXPECT_NE(F.find("full"), std::string::npos) << F;
  EXPECT_NE(F.find("no-karr"), std::string::npos) << F;
  EXPECT_NE(F.find("expected correct"), std::string::npos) << F;
}

TEST(CheckMatrix, DisagreeingArmsAreReportedByName) {
  // Mode::Full declares every cross-thread pair commuting — unsound, so
  // the reduction prunes the interleaving in which both threads enter the
  // critical section, and the bug goes unseen.
  check::Group G;
  G.Name = "unsound";
  G.Arms = {{.Name = "sound"},
            {.Name = "all-commute",
             .Delta = [](core::VerifierConfig &Config) {
               Config.CommutMode = red::CommutativityChecker::Mode::Full;
             }}};
  check::GroupResult R =
      check::runGroup(G, {suiteWorkload("mutex_bug_2")}, testOptions());
  ASSERT_EQ(R.Failures.size(), 1u);
  const std::string &F = R.Failures.front();
  EXPECT_NE(F.find("mutex_bug_2: arms disagree"), std::string::npos)
      << F;
  EXPECT_NE(F.find("sound=incorrect"), std::string::npos) << F;
  EXPECT_NE(F.find("all-commute=correct"), std::string::npos) << F;
}

TEST(CheckMatrix, UndecidedArmBesideADecisiveOneFailsTheGroup) {
  // An arm that loses coverage (here: no refinement round at all, so it
  // ends Unknown) must not hide behind the arms that still decide.
  check::Group G;
  G.Name = "lossy";
  G.Arms = {{.Name = "full"},
            {.Name = "no-rounds",
             .Delta = [](core::VerifierConfig &Config) {
               Config.MaxRounds = 0;
             }}};
  check::GroupResult R =
      check::runGroup(G, {counterWorkload(false)}, testOptions());
  ASSERT_EQ(R.Failures.size(), 1u);
  const std::string &F = R.Failures.front();
  EXPECT_NE(F.find("counter_safe_2x1: arms disagree"), std::string::npos)
      << F;
  EXPECT_NE(F.find("full=correct"), std::string::npos) << F;
  EXPECT_NE(F.find("no-rounds=unknown"), std::string::npos) << F;
}

TEST(CheckMatrix, EveryThirdArmsSkipTheOtherWorkloads) {
  std::vector<workloads::WorkloadInstance> Suite(4, counterWorkload(false));
  check::Group G = check::selectArms(*check::findGroup("incremental"),
                                     {"incremental", "par-inc"});
  check::GroupResult R = check::runGroup(G, Suite, testOptions());
  EXPECT_TRUE(R.ok());
  ASSERT_EQ(R.Rows.size(), 4u);
  for (size_t I = 0; I < R.Rows.size(); ++I) {
    EXPECT_TRUE(R.run(R.Rows[I], "incremental").Ran);
    EXPECT_EQ(R.run(R.Rows[I], "par-inc").Ran, I % 3 == 0) << I;
  }
}

/// The named group with the listed arms changed by Break; keeps the
/// group's assertions.
check::Group broken(const std::string &Name,
                    const std::function<void(check::Arm &)> &Break) {
  check::Group G = *check::findGroup(Name);
  for (check::Arm &A : G.Arms)
    Break(A);
  return G;
}

bool hasFailure(const check::GroupResult &R, const std::string &Text) {
  for (const std::string &F : R.Failures)
    if (F.find(Text) != std::string::npos)
      return true;
  return false;
}

TEST(CheckMatrix, CommutFloorsFailWithoutTheOracle) {
  // The shared and warm arms run without the oracle: nothing is saved.
  check::Group G = broken("commut", [](check::Arm &A) {
    if (A.Name == "shared" || A.Name == "warm")
      A.Oracle = check::OracleMode::Off;
  });
  check::GroupResult R =
      check::runGroup(G, {counterWorkload(false)}, testOptions());
  EXPECT_TRUE(hasFailure(R, "shared oracle saved under 30%"));
  EXPECT_TRUE(hasFailure(R, "persisted-warm run saved under 70%"));
}

TEST(CheckMatrix, IncrementalFloorFailsWithFreshSolvers) {
  check::Group G = broken("incremental", [](check::Arm &A) {
    A.Delta = [](core::VerifierConfig &Config) {
      Config.IncrementalSmt = false;
    };
  });
  check::GroupResult R =
      check::runGroup(G, {suiteWorkload("ticket_safe_3")}, testOptions());
  EXPECT_TRUE(hasFailure(R, "saved under 30% of the theory rounds"));
}

/// The sequential commut arms do not race, so their semantic solver calls
/// over the group's quick sample are exact: a drift either way fails here
/// before it could reach the group's floors.
TEST(CheckMatrix, CommutOracleSavingsArePinned) {
  const check::Group &Commut = *check::findGroup("commut");
  check::MatrixOptions O = testOptions();
  O.Quick = true;
  check::GroupResult R = check::runGroup(
      check::selectArms(Commut, {"off", "shared", "cold", "warm"}),
      Commut.Suite(), O);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Rows.size(), 20u);
  EXPECT_EQ(R.total("off", "commut_semantic"), 1456);
  EXPECT_EQ(R.total("shared", "commut_semantic"), 609);
  EXPECT_EQ(R.total("cold", "commut_semantic"), 589);
  EXPECT_EQ(R.total("warm", "commut_semantic"), 0);
}

TEST(CheckMatrix, SelectArmsDropsGroupAssertionsAndForeignColumns) {
  const check::Group &Commut = *check::findGroup("commut");
  ASSERT_NE(Commut.Finish, nullptr);
  check::Group G = check::selectArms(Commut, {"off", "warm"});
  EXPECT_EQ(G.Finish, nullptr);
  ASSERT_EQ(G.Arms.size(), 2u);
  EXPECT_EQ(G.Arms[1].Name, "warm");
  for (const check::Column &Col : G.Columns)
    EXPECT_TRUE(Col.Arm == "off" || Col.Arm == "warm") << Col.Header;
  EXPECT_EQ(check::findGroup("no-such-group"), nullptr);
  EXPECT_EQ(check::groups().size(), 6u);
}

} // namespace
