//===- tests/verifier_test.cpp - End-to-end verification tests ------------===//
///
/// Exercises the full refinement loop (Algorithm 2 embedded in trace
/// abstraction) across configurations: baseline (no reduction), sleep-only,
/// persistent-only, combined, proof-sensitive on/off, and all portfolio
/// orders. Verdicts are cross-checked against the explicit-state model
/// checker on finite-state instances and against witness replay.
///
//===----------------------------------------------------------------------===//

#include "core/Portfolio.h"
#include "core/Proof.h"
#include "core/TraceAnalysis.h"
#include "core/Verifier.h"

#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "reduction/SleepSet.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>

using namespace seqver;
using namespace seqver::core;
using seqver::automata::Letter;
using seqver::smt::Term;

namespace {

class VerifierTest : public ::testing::Test {
protected:
  smt::TermManager TM;

  std::unique_ptr<prog::ConcurrentProgram> build(const std::string &Source) {
    prog::BuildResult R = prog::buildFromSource(Source, TM);
    EXPECT_TRUE(R.ok()) << R.Error;
    return std::move(R.Program);
  }

  VerifierConfig fastConfig() {
    VerifierConfig C;
    C.TimeoutSeconds = 20;
    return C;
  }
};

//===----------------------------------------------------------------------===//
// Proof automaton
//===----------------------------------------------------------------------===//

TEST_F(VerifierTest, ProofAutomatonBasics) {
  auto P = build("var int x := 0; thread t { x := x + 1; }");
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  ProofAutomaton Proof(TM, QE, Fresh, *P);

  Term X = TM.lookupVar("x");
  smt::LinSum SX = TM.sumOfVar(X);
  uint32_t GeZero = Proof.addPredicate(TM.mkGe(SX, TM.sumOfConst(0)));
  uint32_t GeTen = Proof.addPredicate(TM.mkGe(SX, TM.sumOfConst(10)));

  // Initially x == 0: x >= 0 holds, x >= 10 does not, false does not.
  SetId InitId = Proof.initialSet();
  const PredSet &Init = Proof.set(InitId);
  EXPECT_TRUE(std::count(Init.begin(), Init.end(), GeZero));
  EXPECT_FALSE(std::count(Init.begin(), Init.end(), GeTen));
  EXPECT_FALSE(Proof.isFalse(InitId));

  // {x >= 0} x := x+1 {x >= 0} holds.
  SetId NextId = Proof.step(Proof.internSet({GeZero}), 0);
  const PredSet &Next = Proof.set(NextId);
  EXPECT_TRUE(std::count(Next.begin(), Next.end(), GeZero));
  EXPECT_FALSE(Proof.isFalse(NextId));

  // Dedup: adding the same predicate returns the same id.
  EXPECT_EQ(Proof.addPredicate(TM.mkGe(SX, TM.sumOfConst(0))), GeZero);
}

TEST_F(VerifierTest, ProofStepFromFalseStaysFalse) {
  auto P = build("var int x := 0; thread t { x := x + 1; }");
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  ProofAutomaton Proof(TM, QE, Fresh, *P);
  SetId Next = Proof.step(Proof.internSet({ProofAutomaton::FalseId}), 0);
  EXPECT_TRUE(Proof.isFalse(Next));
}

TEST_F(VerifierTest, ProofDetectsBlockedActions) {
  auto P = build("var int x := 0; thread t { assume x >= 5; }");
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  ProofAutomaton Proof(TM, QE, Fresh, *P);
  Term X = TM.lookupVar("x");
  uint32_t LeZero =
      Proof.addPredicate(TM.mkLe(TM.sumOfVar(X), TM.sumOfConst(0)));
  // {x <= 0} assume x >= 5 {false}: the action is blocked.
  SetId Next = Proof.step(Proof.internSet({LeZero}), 0);
  EXPECT_TRUE(Proof.isFalse(Next));
}

//===----------------------------------------------------------------------===//
// Trace analysis
//===----------------------------------------------------------------------===//

TEST_F(VerifierTest, TraceAnalysisFeasible) {
  auto P = build("var int x := 0;"
                 "thread a { x := 1; }"
                 "thread checker { assert x == 0; }");
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  // Letters: 0 = x := 1, 1 = assert_ok, 2 = assert_fail.
  TraceAnalysis Feasible = analyzeTrace(TM, QE, Fresh, *P, {0, 2});
  EXPECT_EQ(Feasible.Status, TraceStatus::Feasible);
  TraceAnalysis Spurious = analyzeTrace(TM, QE, Fresh, *P, {2});
  ASSERT_EQ(Spurious.Status, TraceStatus::Infeasible);
  ASSERT_EQ(Spurious.WpChain.size(), 2u);
  EXPECT_EQ(Spurious.WpChain.back(), TM.mkFalse());
  // A_0 = wp(assert_fail, false) = (x != 0 -> false) = (x == 0).
  Term X = TM.lookupVar("x");
  EXPECT_EQ(Spurious.WpChain[0],
            TM.mkEq(TM.sumOfVar(X), TM.sumOfConst(0)));
}

//===----------------------------------------------------------------------===//
// End-to-end verdicts
//===----------------------------------------------------------------------===//

TEST_F(VerifierTest, TrivialCorrectProgram) {
  auto P = build("var int x := 0; thread t { assert x == 0; }");
  for (const char *Order : {"baseline", "seq", "lockstep", "rand(1)"}) {
    VerificationResult R = runSingleOrder(*P, fastConfig(), Order);
    EXPECT_EQ(R.V, Verdict::Correct) << Order;
  }
}

TEST_F(VerifierTest, TrivialIncorrectProgram) {
  auto P = build("var int x := 1; thread t { assert x == 0; }");
  for (const char *Order : {"baseline", "seq", "lockstep", "rand(1)"}) {
    VerificationResult R = runSingleOrder(*P, fastConfig(), Order);
    EXPECT_EQ(R.V, Verdict::Incorrect) << Order;
  }
}

TEST_F(VerifierTest, WitnessReplaysToError) {
  auto P = build("var int x := 0;"
                 "thread a { x := x + 1; x := x + 1; }"
                 "thread checker { assume x == 2; assert false; }");
  VerificationResult R = runSingleOrder(*P, fastConfig(), "seq");
  ASSERT_EQ(R.V, Verdict::Incorrect);
  ASSERT_FALSE(R.Witness.empty());
  // The witness is a feasible run of the program reaching the error.
  EXPECT_TRUE(prog::replayTrace(*P, R.Witness).has_value());
  prog::ProductState Locs = P->initialProductState();
  for (Letter L : R.Witness) {
    auto Succs = P->successors(Locs);
    bool Stepped = false;
    for (auto &[SL, Next] : Succs)
      if (SL == L) {
        Locs = Next;
        Stepped = true;
        break;
      }
    ASSERT_TRUE(Stepped);
  }
  EXPECT_TRUE(P->isErrorState(Locs));
}

TEST_F(VerifierTest, RaceDetectedOnlyWhenPresent) {
  // Non-atomic check-then-act is racy; atomic is safe.
  auto Racy = build("var bool locked := false; var int c := 0;"
                    "thread a { assume !locked; locked := true;"
                    "  c := c + 1; assert c == 1; c := c - 1;"
                    "  locked := false; }"
                    "thread b { assume !locked; locked := true;"
                    "  c := c + 1; c := c - 1; locked := false; }");
  EXPECT_EQ(runSingleOrder(*Racy, fastConfig(), "seq").V,
            Verdict::Incorrect);

  smt::TermManager TM2;
  prog::BuildResult Safe = prog::buildFromSource(
      "var bool locked := false; var int c := 0;"
      "thread a { atomic { assume !locked; locked := true; }"
      "  c := c + 1; assert c == 1; c := c - 1; locked := false; }"
      "thread b { atomic { assume !locked; locked := true; }"
      "  c := c + 1; c := c - 1; locked := false; }",
      TM2);
  ASSERT_TRUE(Safe.ok());
  EXPECT_EQ(runSingleOrder(*Safe.Program, fastConfig(), "seq").V,
            Verdict::Correct);
}

TEST_F(VerifierTest, AllConfigurationsAgreeOnVerdicts) {
  // Variants of Table 2: portfolio pieces must agree on ground truth.
  struct Case {
    const char *Source;
    bool Correct;
  };
  std::vector<Case> Cases = {
      {"var int x := 0;"
       "thread a { x := x + 1; }"
       "thread b { x := x + 1; }"
       "thread checker { assert x <= 2; }",
       true},
      {"var int x := 0;"
       "thread a { x := x + 1; }"
       "thread b { x := x + 1; }"
       "thread checker { assert x <= 1; }",
       false},
  };
  for (const Case &C : Cases) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(C.Source, LocalTM);
    ASSERT_TRUE(B.ok()) << B.Error;

    std::vector<VerifierConfig> Configs;
    VerifierConfig Base = fastConfig();
    Configs.push_back(VerifierConfig::baseline());
    Configs.back().TimeoutSeconds = 20;
    // sleep-only / persistent-only / combined / non-proof-sensitive.
    for (int Mask = 0; Mask < 4; ++Mask) {
      VerifierConfig Cfg = Base;
      Cfg.UseSleepSets = Mask & 1;
      Cfg.UsePersistentSets = Mask & 2;
      Cfg.ProofSensitive = (Mask & 1) != 0;
      Configs.push_back(Cfg);
    }
    auto Orders = red::makePortfolioOrders(*B.Program);
    for (VerifierConfig Cfg : Configs) {
      if (Cfg.UseSleepSets || Cfg.UsePersistentSets)
        Cfg.Order = Orders[0].get();
      Verifier V(*B.Program, Cfg);
      VerificationResult R = V.run();
      EXPECT_EQ(R.V, C.Correct ? Verdict::Correct : Verdict::Incorrect)
          << "sleep=" << Cfg.UseSleepSets
          << " persistent=" << Cfg.UsePersistentSets;
    }
  }
}

TEST_F(VerifierTest, VerdictMatchesExplicitStateOracle) {
  // Finite-state programs: the model checker is ground truth.
  std::vector<std::string> Sources = {
      "var int x := 0;"
      "thread a { x := x + 1; }"
      "thread b { x := x - 1; }"
      "thread checker { assert x >= 0 - 1 && x <= 1; }",
      "var int x := 0; var bool f := false;"
      "thread a { x := 1; f := true; }"
      "thread checker { assume f; assert x == 1; }",
      "var int x := 0; var bool f := false;"
      "thread a { f := true; x := 1; }"
      "thread checker { assume f; assert x == 1; }",
  };
  for (const std::string &Source : Sources) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(Source, LocalTM);
    ASSERT_TRUE(B.ok()) << B.Error;
    prog::ReachResult Oracle = prog::explicitReach(*B.Program, 100000);
    ASSERT_FALSE(Oracle.Overflow);
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 20;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    EXPECT_EQ(R.V,
              Oracle.ErrorReachable ? Verdict::Incorrect : Verdict::Correct)
        << Source;
  }
}

TEST_F(VerifierTest, PortfolioAggregatesBestOrder) {
  auto P = build(workloads::bluetoothSource(2));
  VerifierConfig Cfg = fastConfig();
  PortfolioResult R = runPortfolio(*P, Cfg);
  EXPECT_TRUE(R.decisive());
  EXPECT_EQ(R.Best.V, Verdict::Correct);
  EXPECT_EQ(R.Entries.size(), 5u); // seq, lockstep, rand(1..3)
  // The best entry's time is the minimum among decisive entries.
  for (const PortfolioEntry &E : R.Entries) {
    if (E.Result.V == Verdict::Correct) {
      EXPECT_LE(R.Best.Seconds, E.Result.Seconds + 1e-9);
    }
  }
}

TEST_F(VerifierTest, BluetoothConstantRoundsWithReduction) {
  // Sec. 2: the reduction admits a proof with a constant number of rounds.
  for (int Users = 1; Users <= 3; ++Users) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(
        workloads::bluetoothSource(Users), LocalTM);
    ASSERT_TRUE(B.ok()) << B.Error;
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 30;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    ASSERT_EQ(R.V, Verdict::Correct);
    EXPECT_EQ(R.Rounds, 3) << "users=" << Users;
  }
}

TEST_F(VerifierTest, BluetoothBugFound) {
  for (int Users = 1; Users <= 2; ++Users) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(
        workloads::bluetoothSource(Users, /*WithBug=*/true), LocalTM);
    ASSERT_TRUE(B.ok()) << B.Error;
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 30;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    ASSERT_EQ(R.V, Verdict::Incorrect);
    EXPECT_TRUE(prog::replayTrace(*B.Program, R.Witness).has_value());
  }
}

/// visited_total sums the DFS states of every round, the ones that end in
/// a counterexample included, so a bug instance reports at least the
/// states of its largest round.
TEST_F(VerifierTest, VisitedTotalCountsCounterexampleRounds) {
  smt::TermManager LocalTM;
  prog::BuildResult B = prog::buildFromSource(
      workloads::bluetoothSource(3, /*WithBug=*/true), LocalTM);
  ASSERT_TRUE(B.ok()) << B.Error;
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 30;
  VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
  ASSERT_EQ(R.V, Verdict::Incorrect);
  EXPECT_GT(R.Stats.get("peak_visited"), 0);
  EXPECT_GE(R.Stats.get("visited_total"), R.Stats.get("peak_visited"));
}

TEST_F(VerifierTest, UselessCacheDoesNotChangeVerdicts) {
  auto Src = workloads::bluetoothSource(2);
  for (bool UseCache : {false, true}) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(Src, LocalTM);
    ASSERT_TRUE(B.ok());
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 30;
    Cfg.UselessStateCache = UseCache;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    EXPECT_EQ(R.V, Verdict::Correct) << "cache=" << UseCache;
    EXPECT_EQ(R.Rounds, 3);
  }
}

TEST_F(VerifierTest, ProofSensitivityOnOffBothSound) {
  auto Src = workloads::bluetoothSource(2);
  for (bool Sensitive : {false, true}) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(Src, LocalTM);
    ASSERT_TRUE(B.ok());
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 30;
    Cfg.ProofSensitive = Sensitive;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    EXPECT_EQ(R.V, Verdict::Correct) << "sensitive=" << Sensitive;
  }
}

TEST_F(VerifierTest, SyntacticCommutativityModeIsSound) {
  auto Src = workloads::bluetoothSource(2);
  smt::TermManager LocalTM;
  prog::BuildResult B = prog::buildFromSource(Src, LocalTM);
  ASSERT_TRUE(B.ok());
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 30;
  Cfg.CommutMode = red::CommutativityChecker::Mode::Syntactic;
  VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
  EXPECT_EQ(R.V, Verdict::Correct);
}

TEST_F(VerifierTest, TimeoutReported) {
  auto P = build(workloads::bluetoothSource(3));
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 0.000001; // expire immediately
  VerificationResult R = runSingleOrder(*P, Cfg, "seq");
  EXPECT_EQ(R.V, Verdict::Timeout);
}

TEST_F(VerifierTest, UnknownOrderNameIsUndecidedNotAnAbort) {
  auto P = build("var int x := 0; thread t { assert x == 0; }");
  VerificationResult R = runSingleOrder(*P, fastConfig(), "no-such-order");
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stats.get("unknown_order"), 1);
  EXPECT_EQ(R.Rounds, 0);
}

//===----------------------------------------------------------------------===//
// Workload suites: ground truth for every instance (seq order)
//===----------------------------------------------------------------------===//

class SuiteGroundTruth
    : public ::testing::TestWithParam<workloads::WorkloadInstance> {};

TEST_P(SuiteGroundTruth, SeqOrderMatchesExpectedVerdict) {
  const auto &W = GetParam();
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(W.Source, TM);
  ASSERT_TRUE(B.ok()) << W.Name << ": " << B.Error;
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 60;
  VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
  EXPECT_EQ(R.V, W.ExpectedCorrect ? Verdict::Correct : Verdict::Incorrect)
      << W.Name;
  if (R.V == Verdict::Incorrect) {
    EXPECT_TRUE(prog::replayTrace(*B.Program, R.Witness).has_value())
        << W.Name;
  }
}

std::vector<workloads::WorkloadInstance> allSuiteInstances() {
  auto Out = workloads::svcompLikeSuite();
  auto Weaver = workloads::weaverLikeSuite();
  Out.insert(Out.end(), Weaver.begin(), Weaver.end());
  return Out;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SuiteGroundTruth, ::testing::ValuesIn(allSuiteInstances()),
    [](const ::testing::TestParamInfo<workloads::WorkloadInstance> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// Golden DFS work counters (seq order)
//===----------------------------------------------------------------------===//

/// One seq-order run's verdict and DFS work counters. The literals were
/// captured from the DFS with map-keyed memo tables; the id-keyed tables
/// must reproduce them exactly — same states, same pruning, same Hoare and
/// SMT query streams.
struct GoldenDfs {
  const char *Name;
  Verdict V;
  int64_t Rounds;
  int64_t PeakVisited;
  int64_t SleepPruned;
  int64_t PersistentPruned;
  int64_t UselessCacheHits;
  int64_t HoareQueries;
  int64_t SemanticCommutChecks;
  int64_t SmtQueries;
};

/// Source of a golden row: bluetooth_<n> / bluetooth_bug_<n>, or a named
/// instance of a tier-1 suite.
std::string goldenSource(const std::string &Name) {
  for (bool Bug : {true, false}) {
    std::string Prefix = Bug ? "bluetooth_bug_" : "bluetooth_";
    if (Name.rfind(Prefix, 0) == 0)
      return workloads::bluetoothSource(std::stoi(Name.substr(Prefix.size())),
                                        Bug);
  }
  for (const auto &Suite :
       {workloads::svcompLikeSuite(), workloads::weaverLikeSuite(),
        workloads::loopHeavySuite(), workloads::affineSuite()})
    for (const workloads::WorkloadInstance &W : Suite)
      if (W.Name == Name)
        return W.Source;
  ADD_FAILURE() << "no golden program " << Name;
  return "";
}

void PrintTo(const GoldenDfs &G, std::ostream *OS) { *OS << G.Name; }

class GoldenDfsCounters : public ::testing::TestWithParam<GoldenDfs> {};

TEST_P(GoldenDfsCounters, SeqOrderWorkIsPinned) {
  const GoldenDfs &G = GetParam();
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(goldenSource(G.Name), TM);
  ASSERT_TRUE(B.ok()) << B.Error;
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 120;
  VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
  const Statistics &S = R.Stats;
  EXPECT_EQ(R.V, G.V);
  EXPECT_EQ(R.Rounds, G.Rounds);
  EXPECT_EQ(S.get("peak_visited"), G.PeakVisited);
  EXPECT_EQ(S.get("sleep_pruned"), G.SleepPruned);
  EXPECT_EQ(S.get("persistent_pruned"), G.PersistentPruned);
  EXPECT_EQ(S.get("useless_cache_hits"), G.UselessCacheHits);
  EXPECT_EQ(S.get("hoare_queries"), G.HoareQueries);
  EXPECT_EQ(S.get("semantic_commut_checks"), G.SemanticCommutChecks);
  EXPECT_EQ(S.get("smt_queries"), G.SmtQueries);
}

INSTANTIATE_TEST_SUITE_P(
    SeqOrder, GoldenDfsCounters,
    ::testing::Values(
        GoldenDfs{"bluetooth_3", Verdict::Correct,
                  3, 345, 933, 226, 178, 4306, 191, 2},
        GoldenDfs{"bluetooth_bug_3", Verdict::Incorrect,
                  3, 886, 1815, 848, 444, 5488, 247, 3},
        GoldenDfs{"bluetooth_4", Verdict::Correct,
                  3, 1594, 5644, 1076, 1125, 6564, 359, 1},
        GoldenDfs{"bluetooth_bug_4", Verdict::Incorrect,
                  3, 6258, 16292, 6967, 4619, 8500, 538, 3},
        GoldenDfs{"bluetooth_5", Verdict::Correct,
                  3, 7584, 32402, 5323, 7598, 10340, 544, 2},
        GoldenDfs{"bluetooth_bug_5", Verdict::Incorrect,
                  3, 24966, 86377, 22365, 24685, 12151, 786, 3},
        GoldenDfs{"mutex_safe_3", Verdict::Correct,
                  2, 41, 31, 23, 15, 167, 16, 1},
        GoldenDfs{"parallel_sum_4", Verdict::Correct,
                  2, 47, 49, 0, 1, 238, 8, 1},
        GoldenDfs{"loop_sum_safe_5", Verdict::Correct,
                  6, 29, 14, 0, 31, 5377, 1, 5},
        GoldenDfs{"stride_pair_safe_5", Verdict::Correct,
                  6, 40, 19, 0, 35, 9236, 2, 5}),
    [](const ::testing::TestParamInfo<GoldenDfs> &Info) {
      return std::string(Info.param.Name);
    });

/// The whole tier-1 svcomp + weaver suite under "seq": every instance must
/// reach its expected verdict, and the suite's summed DFS, Hoare, SMT and
/// intern-table work is pinned like a GoldenDfsCounters row, so one extra
/// DFS push or solver query anywhere in the suite fails it.
TEST(GoldenSuiteCounters, Tier1SeqSuiteWorkIsPinned) {
  std::vector<workloads::WorkloadInstance> Suite =
      workloads::svcompLikeSuite();
  for (workloads::WorkloadInstance &W : workloads::weaverLikeSuite())
    Suite.push_back(std::move(W));
  const std::vector<std::pair<std::string, int64_t>> Golden = {
      {"peak_visited", 67003},      {"hoare_queries", 88384},
      {"smt_queries", 83},          {"semantic_commut_checks", 3921},
      {"sleep_pruned", 264517},     {"persistent_pruned", 46816},
      {"useless_cache_hits", 72539}, {"peak_interned_sets", 11419}};
  std::map<std::string, int64_t> Sums;
  int Expected = 0;
  int64_t Rounds = 0;
  for (const workloads::WorkloadInstance &W : Suite) {
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(W.Source, TM);
    ASSERT_TRUE(B.ok()) << W.Name << ": " << B.Error;
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 120;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    Expected += R.V == (W.ExpectedCorrect ? Verdict::Correct
                                          : Verdict::Incorrect);
    Rounds += R.Rounds;
    for (const auto &[Name, Value] : Golden)
      Sums[Name] += R.Stats.get(Name);
  }
  EXPECT_EQ(Suite.size(), 57u);
  EXPECT_EQ(Expected, 57);
  EXPECT_EQ(Rounds, 127);
  for (const auto &[Name, Value] : Golden)
    EXPECT_EQ(Sums[Name], Value) << Name;
}

/// Prefers smaller letter indices; needs no program.
struct IdentityOrder final : red::PreferenceOrder {
  bool less(Context, Letter A, Letter B) const override { return A < B; }
  std::string name() const override { return "identity"; }
};

/// The generic sleep-set construction (Def. 5.1) over a complete synthetic
/// automaton whose unrolling fans out into thousands of (state, sleep set)
/// pairs: 512 states, 12 letters, same-parity letters commute.
TEST(GoldenSuiteCounters, SyntheticSleepSetAutomatonIsPinned) {
  constexpr uint32_t NumStates = 512, NumLetters = 12;
  automata::Dfa Base(NumLetters);
  for (uint32_t S = 0; S < NumStates; ++S)
    Base.addState(S % 7 == 0);
  Base.setInitial(0);
  for (uint32_t S = 0; S < NumStates; ++S)
    for (Letter L = 0; L < NumLetters; ++L)
      Base.addTransition(S, L, (S * 31 + (L + 1) * 17) % NumStates);
  IdentityOrder Order;
  bool Overflow = true;
  automata::Dfa R = red::sleepSetAutomaton(
      Base, Order, [](Letter A, Letter B) { return ((A ^ B) & 1) == 0; },
      /*MaxStates=*/0, &Overflow);
  EXPECT_FALSE(Overflow);
  EXPECT_EQ(R.numStates(), 5632u);
}

/// The combined reduction (Sec. 6.2) of Source under "seq" with static
/// commutativity.
red::ProgramReduction seqReduction(const std::string &Source,
                                   const red::ReductionConfig &Config) {
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(Source, TM);
  EXPECT_TRUE(B.ok()) << B.Error;
  if (!B.ok())
    return {};
  smt::QueryEngine QE(TM);
  red::CommutativityChecker Commut(*B.Program, QE,
                                   red::CommutativityChecker::Mode::Static);
  red::SequentialOrder Order(*B.Program);
  return red::buildReduction(*B.Program, &Order, Commut, Config);
}

/// The combined reductions of every svcomp program plus bluetooth(3) and
/// bluetooth(4), summed.
TEST(GoldenSuiteCounters, ProgramReductionSizesArePinned) {
  std::vector<std::string> Sources;
  for (const workloads::WorkloadInstance &W : workloads::svcompLikeSuite())
    Sources.push_back(W.Source);
  Sources.push_back(workloads::bluetoothSource(3));
  Sources.push_back(workloads::bluetoothSource(4));
  uint64_t States = 0;
  for (const std::string &Source : Sources) {
    red::ProgramReduction R = seqReduction(Source, {});
    EXPECT_FALSE(R.Overflow);
    States += R.Automaton.numStates();
  }
  EXPECT_EQ(States, 63280u);
}

/// The MaxStates valve stops the construction at exactly the cap.
TEST(GoldenSuiteCounters, ReductionOverflowsAtMaxStates) {
  red::ReductionConfig Capped;
  Capped.MaxStates = 100;
  red::ProgramReduction R =
      seqReduction(workloads::bluetoothSource(4), Capped);
  EXPECT_TRUE(R.Overflow);
  EXPECT_EQ(R.Automaton.numStates(), 100u);
}

} // namespace
