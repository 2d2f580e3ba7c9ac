//===- tests/hoare_gate_test.cpp - Proof steps against fresh implications -===//
///
/// \file
/// Differential suite for the proof automaton's Hoare gate
/// (core::ProofAutomaton::step): the frame rule and the counter-model rule
/// settle triples without the solver, so every transition they help
/// compute must equal the set a plain fresh-path QueryEngine::implies per
/// predicate gives.
///
/// For each workload the verifier runs once under the `seq` order; a
/// correct run exports its final predicate pool. A new automaton over the
/// same program takes that pool and walks every proof state reachable from
/// initialSet() under every letter, with the incremental gate and with the
/// fresh one. Each step(S, L) is compared with the reference the test
/// computes itself: predicate psi is in the set iff implies(conj(S),
/// wp(L, psi)) with a wp built by the test's own fresh-variable source. An
/// incorrect run exports no pool and contributes no steps.
///
//===----------------------------------------------------------------------===//

#include "core/Portfolio.h"
#include "core/Proof.h"
#include "persist/Fingerprint.h"
#include "persist/TermIO.h"
#include "program/CfgBuilder.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

using namespace seqver;
using namespace seqver::core;
using seqver::smt::Term;

namespace {

/// Proof states explored per workload and gate; bounds the reference's
/// fresh solves (one per predicate per step) on the largest pools.
constexpr size_t MaxStepsPerWorkload = 600;

struct GateTotals {
  uint64_t Steps = 0;
  uint64_t Frame = 0;
  uint64_t ModelRefuted = 0;
};

/// Walks the automaton seeded with Pool over P and checks every step
/// against the reference; adds its counts to Totals.
void checkPool(const std::string &Name, const std::string &Source,
               const std::vector<std::string> &Pool, bool Incremental,
               GateTotals &Totals) {
  smt::TermManager TM;
  prog::BuildResult Build = prog::buildFromSource(Source, TM);
  ASSERT_TRUE(Build.ok()) << Name << ": " << Build.Error;
  const prog::ConcurrentProgram &P = *Build.Program;

  smt::QueryEngine GateQE(TM);
  prog::FreshVarSource GateFresh(TM);
  ProofAutomaton Gate(TM, GateQE, GateFresh, P);
  Gate.setIncremental(Incremental);
  // Wp-chain symbols of the verifier's run are renamed out of the fresh
  // namespace, as the proof cache does on a warm start.
  std::vector<std::string> Known = persist::programVariableNames(P);
  persist::ParseOptions Opts;
  Opts.KnownVars = &Known;
  for (const std::string &Text : Pool) {
    persist::ParseResult Parsed = persist::parseTerm(TM, Text, Opts);
    ASSERT_TRUE(Parsed.ok()) << Name << ": " << Text << ": " << Parsed.Error;
    Gate.addPredicate(Parsed.Value);
  }

  smt::QueryEngine RefQE(TM);
  prog::FreshVarSource RefFresh(TM);
  auto Reference = [&](SetId S, automata::Letter L) {
    Term Pre = Gate.conjunction(S);
    if (Pre == TM.mkFalse())
      return PredSet{ProofAutomaton::FalseId};
    PredSet Expect;
    for (uint32_t Id = 0; Id < Gate.numPredicates(); ++Id)
      if (RefQE.implies(Pre, prog::wpAction(TM, P.action(L),
                                            Gate.predicate(Id), RefFresh)))
        Expect.push_back(Id);
    return Expect;
  };

  SetId Init = Gate.initialSet();
  std::vector<bool> Seen(Init + 1, false);
  Seen[Init] = true;
  std::deque<SetId> Queue{Init};
  size_t Steps = 0;
  while (!Queue.empty() && Steps < MaxStepsPerWorkload) {
    SetId S = Queue.front();
    Queue.pop_front();
    for (automata::Letter L = 0;
         L < P.numLetters() && Steps < MaxStepsPerWorkload; ++L, ++Steps) {
      SetId Next = Gate.step(S, L);
      ASSERT_EQ(Gate.set(Next), Reference(S, L))
          << Name << (Incremental ? " (incremental)" : " (fresh)")
          << ": step from set " << S << " under letter " << L;
      if (Next >= Seen.size())
        Seen.resize(Next + 1, false);
      if (!Seen[Next]) {
        Seen[Next] = true;
        Queue.push_back(Next);
      }
    }
  }
  Totals.Steps += Steps;
  Totals.Frame += Gate.numHoareFrame();
  Totals.ModelRefuted += Gate.numHoareModelRefuted();
}

GateTotals runSuite(const std::vector<workloads::WorkloadInstance> &Suite) {
  GateTotals Totals;
  VerifierConfig Config;
  Config.TimeoutSeconds = 20;
  for (const workloads::WorkloadInstance &W : Suite) {
    smt::TermManager TM;
    prog::BuildResult Build = prog::buildFromSource(W.Source, TM);
    EXPECT_TRUE(Build.ok()) << W.Name << ": " << Build.Error;
    if (!Build.ok())
      continue;
    VerificationResult R = runSingleOrder(*Build.Program, Config, "seq");
    if (R.V != Verdict::Correct)
      continue;
    for (bool Incremental : {true, false}) {
      checkPool(W.Name, W.Source, R.ProofAssertions, Incremental, Totals);
      if (::testing::Test::HasFatalFailure())
        return Totals;
    }
  }
  EXPECT_GT(Totals.Steps, 0u) << "no correct workload exported a pool";
  return Totals;
}

TEST(HoareGate, SvcompLikeSuite) {
  GateTotals T = runSuite(workloads::svcompLikeSuite());
  EXPECT_GT(T.Frame, 0u);
}

TEST(HoareGate, WeaverLikeSuite) { runSuite(workloads::weaverLikeSuite()); }

TEST(HoareGate, LoopHeavySuite) { runSuite(workloads::loopHeavySuite()); }

TEST(HoareGate, AffineSuite) { runSuite(workloads::affineSuite()); }

TEST(HoareGate, RefinementFamilies) {
  GateTotals T = runSuite({
      {"loop_sum_5", workloads::loopSumSource(5), true, "loop_sum"},
      {"affine_sum_5", workloads::affineSumSource(5), true, "affine_sum"},
      {"stride_pair_5", workloads::stridePairSource(5), true, "stride_pair"},
  });
  // The refinement families are where both rules carry the gate.
  EXPECT_GT(T.Frame, 0u);
  EXPECT_GT(T.ModelRefuted, 0u);
}

//===----------------------------------------------------------------------===//
// Counter-model rule
//===----------------------------------------------------------------------===//

TEST(HoareGate, OverflowingModelRefutesNothing) {
  smt::TermManager TM;
  Term X = TM.mkVar("x", smt::Sort::Int);
  Term Y = TM.mkVar("y", smt::Sort::Int);
  Term Z = TM.mkVar("z", smt::Sort::Int);
  // 1 - x - y - z <= 0, i.e. x + y + z >= 1: true at x = y = z = 2^62 over
  // the integers, but the sum leaves int64 (a wrapping evaluation reads it
  // as 1 + 2^62 > 0, which would falsely refute the triple).
  smt::LinSum Sum = TM.sumOfConst(1);
  for (Term V : {X, Y, Z})
    Sum = smt::TermManager::sumSub(Sum, TM.sumOfVar(V));
  Term Wp = TM.mkLeZero(Sum);
  smt::Assignment Model;
  for (Term V : {X, Y, Z})
    Model.IntValues[V] = int64_t(1) << 62;
  EXPECT_FALSE(ProofAutomaton::refutes(Model, Wp));

  // A model that really falsifies wp still refutes it.
  smt::Assignment Small;
  EXPECT_TRUE(ProofAutomaton::refutes(Small, Wp)); // 1 - 0 <= 0 is false
  // A false disjunct beside the overflowing one decides nothing either.
  Term XLeZero = TM.mkLeZero(TM.sumOfVar(X));
  EXPECT_FALSE(ProofAutomaton::refutes(Model, TM.mkOr(Wp, XLeZero)));
  // A false conjunct decides the conjunction whatever its sibling gives.
  EXPECT_TRUE(ProofAutomaton::refutes(Model, TM.mkAnd(Wp, XLeZero)));
}

} // namespace
