//===- tests/smt_solver_test.cpp - SAT + DPLL(T) solver tests -------------===//

#include "smt/Evaluator.h"
#include "smt/Farkas.h"
#include "smt/LiaSolver.h"
#include "smt/SatSolver.h"
#include "smt/Solver.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seqver;
using namespace seqver::smt;

//===----------------------------------------------------------------------===//
// Pure SAT layer
//===----------------------------------------------------------------------===//

TEST(SatSolverTest, EmptyIsSat) {
  SatSolver S;
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolverTest, UnitPropagation) {
  SatSolver S;
  uint32_t A = S.newVar();
  uint32_t B = S.newVar();
  S.addClause({mkLit(A, false)});
  S.addClause({mkLit(A, true), mkLit(B, false)});
  ASSERT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(SatSolverTest, ContradictoryUnits) {
  SatSolver S;
  uint32_t A = S.newVar();
  S.addClause({mkLit(A, false)});
  EXPECT_FALSE(S.addClause({mkLit(A, true)}));
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolverTest, PigeonHole3Into2IsUnsat) {
  // 3 pigeons, 2 holes: var p*2+h means pigeon p in hole h.
  SatSolver S;
  uint32_t Vars[3][2];
  for (auto &Row : Vars)
    for (uint32_t &V : Row)
      V = S.newVar();
  for (auto &Row : Vars)
    S.addClause({mkLit(Row[0], false), mkLit(Row[1], false)});
  for (int H = 0; H < 2; ++H)
    for (int P1 = 0; P1 < 3; ++P1)
      for (int P2 = P1 + 1; P2 < 3; ++P2)
        S.addClause({mkLit(Vars[P1][H], true), mkLit(Vars[P2][H], true)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolverTest, SolveIsRepeatableWithAddedClauses) {
  SatSolver S;
  uint32_t A = S.newVar();
  uint32_t B = S.newVar();
  S.addClause({mkLit(A, false), mkLit(B, false)});
  ASSERT_EQ(S.solve(), SatResult::Sat);
  // Block the returned model and resolve until Unsat; counts models.
  int Models = 0;
  for (;;) {
    ++Models;
    std::vector<Lit> Blocking;
    for (uint32_t V : {A, B})
      Blocking.push_back(mkLit(V, S.modelValue(V)));
    if (!S.addClause(std::move(Blocking)))
      break;
    if (S.solve() == SatResult::Unsat)
      break;
  }
  EXPECT_EQ(Models, 3) << "a OR b has exactly 3 models";
}

namespace {

/// Brute-force 3-CNF satisfiability for up to 16 variables.
bool bruteForceSat(uint32_t NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  for (uint32_t Mask = 0; Mask < (1u << NumVars); ++Mask) {
    bool AllSat = true;
    for (const auto &Clause : Clauses) {
      bool ClauseSat = false;
      for (Lit L : Clause) {
        bool Value = (Mask >> litVar(L)) & 1;
        if (Value != litNegated(L)) {
          ClauseSat = true;
          break;
        }
      }
      if (!ClauseSat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

} // namespace

/// Property sweep: CDCL agrees with brute force on random 3-CNF instances.
class SatRandomCnf : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomCnf, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()));
  uint32_t NumVars = 4 + static_cast<uint32_t>(R.below(6));   // 4..9
  size_t NumClauses = 6 + R.below(30);                        // 6..35
  std::vector<std::vector<Lit>> Clauses;
  for (size_t I = 0; I < NumClauses; ++I) {
    std::vector<Lit> Clause;
    size_t Width = 1 + R.below(3);
    for (size_t K = 0; K < Width; ++K)
      Clause.push_back(
          mkLit(static_cast<uint32_t>(R.below(NumVars)), R.flip()));
    Clauses.push_back(std::move(Clause));
  }

  SatSolver S;
  for (uint32_t V = 0; V < NumVars; ++V)
    S.newVar();
  bool AddOk = true;
  for (auto Clause : Clauses)
    AddOk = S.addClause(std::move(Clause)) && AddOk;
  bool SolverSat = AddOk && S.solve() == SatResult::Sat;
  EXPECT_EQ(SolverSat, bruteForceSat(NumVars, Clauses));
  if (SolverSat) {
    // The produced model must satisfy every clause.
    for (const auto &Clause : Clauses) {
      bool ClauseSat = false;
      for (Lit L : Clause)
        if (S.modelValue(litVar(L)) != litNegated(L))
          ClauseSat = true;
      EXPECT_TRUE(ClauseSat);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomCnf, ::testing::Range(0, 120));

//===----------------------------------------------------------------------===//
// Incremental SAT: solving under assumptions
//===----------------------------------------------------------------------===//

TEST(SatSolverTest, AssumptionCoreExplainsConflict) {
  SatSolver S;
  uint32_t A = S.newVar();
  uint32_t B = S.newVar();
  uint32_t C = S.newVar();
  S.addClause({mkLit(A, true), mkLit(B, false)}); // a -> b
  ASSERT_EQ(S.solveUnderAssumptions(
                {mkLit(A, false), mkLit(B, true), mkLit(C, false)}),
            SatResult::Unsat);
  const std::vector<Lit> &Core = S.conflictCore();
  EXPECT_FALSE(Core.empty());
  for (Lit L : Core) {
    EXPECT_TRUE(L == mkLit(A, false) || L == mkLit(B, true));
    EXPECT_NE(litVar(L), C) << "c plays no part in the conflict";
  }
  // The same instance stays usable: the assumptions did not persist.
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

/// Property sweep: one incremental solver answers a stream of assumption
/// sets; every answer must match brute force, models must satisfy the
/// assumptions, and Unsat cores must be inconsistent assumption subsets.
class SatAssumptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SatAssumptionSweep, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 2654435761ull + 17);
  uint32_t NumVars = 4 + static_cast<uint32_t>(R.below(6)); // 4..9
  size_t NumClauses = 6 + R.below(30);                      // 6..35
  std::vector<std::vector<Lit>> Clauses;
  for (size_t I = 0; I < NumClauses; ++I) {
    std::vector<Lit> Clause;
    size_t Width = 1 + R.below(3);
    for (size_t K = 0; K < Width; ++K)
      Clause.push_back(
          mkLit(static_cast<uint32_t>(R.below(NumVars)), R.flip()));
    Clauses.push_back(std::move(Clause));
  }

  SatSolver S;
  for (uint32_t V = 0; V < NumVars; ++V)
    S.newVar();
  bool AddOk = true;
  for (auto Clause : Clauses)
    AddOk = S.addClause(std::move(Clause)) && AddOk;

  for (int Round = 0; Round < 8; ++Round) {
    std::vector<Lit> Assumptions;
    size_t N = R.below(5);
    for (size_t K = 0; K < N; ++K)
      Assumptions.push_back(
          mkLit(static_cast<uint32_t>(R.below(NumVars)), R.flip()));

    std::vector<std::vector<Lit>> WithUnits = Clauses;
    for (Lit A : Assumptions)
      WithUnits.push_back({A});
    bool Expected = AddOk && bruteForceSat(NumVars, WithUnits);

    SatResult Result = S.solveUnderAssumptions(Assumptions);
    ASSERT_EQ(Result == SatResult::Sat, Expected)
        << "round " << Round << ": retained lemmas flipped the verdict";
    if (Result == SatResult::Sat) {
      for (const auto &Clause : WithUnits) {
        bool ClauseSat = false;
        for (Lit L : Clause)
          if (S.modelValue(litVar(L)) != litNegated(L))
            ClauseSat = true;
        EXPECT_TRUE(ClauseSat);
      }
    } else {
      // The conflict core must be a subset of the assumptions that is
      // already inconsistent with the clause set on its own.
      std::vector<std::vector<Lit>> WithCore = Clauses;
      for (Lit L : S.conflictCore()) {
        EXPECT_NE(std::find(Assumptions.begin(), Assumptions.end(), L),
                  Assumptions.end())
            << "core literal is not an assumption";
        WithCore.push_back({L});
      }
      EXPECT_FALSE(AddOk && bruteForceSat(NumVars, WithCore));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatAssumptionSweep, ::testing::Range(0, 80));

//===----------------------------------------------------------------------===//
// DPLL(T) with linear integer arithmetic
//===----------------------------------------------------------------------===//

namespace {

class SolverTest : public ::testing::Test {
protected:
  TermManager TM;
  Term X = TM.mkVar("x", Sort::Int);
  Term Y = TM.mkVar("y", Sort::Int);
  Term Z = TM.mkVar("z", Sort::Int);
  Term P = TM.mkVar("p", Sort::Bool);

  LinSum sx() { return TM.sumOfVar(X); }
  LinSum sy() { return TM.sumOfVar(Y); }
  LinSum sz() { return TM.sumOfVar(Z); }
  LinSum c(int64_t V) { return TM.sumOfConst(V); }

  SolverResult checkConj(std::vector<Term> Formulas) {
    Solver S(TM);
    for (Term F : Formulas)
      S.assertFormula(F);
    LastModelValid = false;
    SolverResult R = S.check();
    if (R == SolverResult::Sat) {
      LastModel = S.model();
      LastModelValid = true;
    }
    return R;
  }

  Assignment LastModel;
  bool LastModelValid = false;
};

TEST_F(SolverTest, TrueIsSat) {
  EXPECT_EQ(checkConj({TM.mkTrue()}), SolverResult::Sat);
}

TEST_F(SolverTest, FalseIsUnsat) {
  EXPECT_EQ(checkConj({TM.mkFalse()}), SolverResult::Unsat);
}

TEST_F(SolverTest, SimpleBounds) {
  // 1 <= x <= 3 is sat; model in range.
  ASSERT_EQ(checkConj({TM.mkLe(c(1), sx()), TM.mkLe(sx(), c(3))}),
            SolverResult::Sat);
  int64_t V = LastModel.intValue(X);
  EXPECT_GE(V, 1);
  EXPECT_LE(V, 3);
}

TEST_F(SolverTest, ConflictingBounds) {
  EXPECT_EQ(checkConj({TM.mkLe(c(4), sx()), TM.mkLe(sx(), c(3))}),
            SolverResult::Unsat);
}

TEST_F(SolverTest, ChainedInequalitiesUnsat) {
  // x < y, y < z, z < x.
  EXPECT_EQ(checkConj({TM.mkLt(sx(), sy()), TM.mkLt(sy(), sz()),
                       TM.mkLt(sz(), sx())}),
            SolverResult::Unsat);
}

TEST_F(SolverTest, IntegralityCut) {
  // 1 <= 2x <= 1 forces 2x == 1: unsat over integers, sat over rationals.
  LinSum TwoX = TermManager::sumScale(sx(), 2);
  EXPECT_EQ(checkConj({TM.mkLe(c(1), TwoX), TM.mkLe(TwoX, c(1))}),
            SolverResult::Unsat);
}

TEST_F(SolverTest, BranchAndBoundFindsIntegerPoint) {
  // x + y == 1 and x - y == 0 has the rational solution (1/2, 1/2) only.
  EXPECT_EQ(checkConj({TM.mkEq(TermManager::sumAdd(sx(), sy()), c(1)),
                       TM.mkEq(TermManager::sumSub(sx(), sy()), c(0))}),
            SolverResult::Unsat);
}

TEST_F(SolverTest, DisequalitySplits) {
  // x == y violated by x != y with tight bounds.
  EXPECT_EQ(checkConj({TM.mkEq(sx(), sy()),
                       TM.mkNot(TM.mkEq(sx(), sy()))}),
            SolverResult::Unsat);
  // 0 <= x <= 1, x != 0, x != 1 is unsat.
  EXPECT_EQ(checkConj({TM.mkLe(c(0), sx()), TM.mkLe(sx(), c(1)),
                       TM.mkNot(TM.mkEq(sx(), c(0))),
                       TM.mkNot(TM.mkEq(sx(), c(1)))}),
            SolverResult::Unsat);
  // 0 <= x <= 2, x != 0, x != 2 forces x == 1.
  ASSERT_EQ(checkConj({TM.mkLe(c(0), sx()), TM.mkLe(sx(), c(2)),
                       TM.mkNot(TM.mkEq(sx(), c(0))),
                       TM.mkNot(TM.mkEq(sx(), c(2)))}),
            SolverResult::Sat);
  EXPECT_EQ(LastModel.intValue(X), 1);
}

TEST_F(SolverTest, BooleanStructure) {
  // (p OR x >= 5) AND NOT p forces x >= 5.
  ASSERT_EQ(checkConj({TM.mkOr(P, TM.mkGe(sx(), c(5))), TM.mkNot(P)}),
            SolverResult::Sat);
  EXPECT_GE(LastModel.intValue(X), 5);
  EXPECT_FALSE(LastModel.boolValue(P));
}

TEST_F(SolverTest, IffStructure) {
  // (p <=> x <= 0) AND p AND x >= 1 is unsat.
  EXPECT_EQ(checkConj({TM.mkIff(P, TM.mkLe(sx(), c(0))), P,
                       TM.mkGe(sx(), c(1))}),
            SolverResult::Unsat);
}

TEST_F(SolverTest, ModelSatisfiesAssertion) {
  Term F = TM.mkAnd({TM.mkOr(TM.mkLe(sx(), c(-3)), TM.mkGe(sy(), c(7))),
                     TM.mkEq(TermManager::sumAdd(sx(), sy()), c(4))});
  ASSERT_EQ(checkConj({F}), SolverResult::Sat);
  EXPECT_TRUE(evalFormula(F, LastModel));
}

TEST_F(SolverTest, QueryEngineImplication) {
  QueryEngine QE(TM);
  Term A = TM.mkLe(sx(), c(2));
  Term B = TM.mkLe(sx(), c(5));
  EXPECT_TRUE(QE.implies(A, B));
  EXPECT_FALSE(QE.implies(B, A));
  // Cached on repeat.
  uint64_t Queries = QE.numQueries();
  EXPECT_TRUE(QE.implies(A, B));
  EXPECT_EQ(QE.numQueries(), Queries);
  EXPECT_GT(QE.numCacheHits(), 0u);
}

//===----------------------------------------------------------------------===//
// Property sweep: solver result matches brute-force enumeration on bounded
// random formulas.
//===----------------------------------------------------------------------===//

class SolverRandomFormula : public ::testing::TestWithParam<int> {};

TEST_P(SolverRandomFormula, AgreesWithBruteForce) {
  TermManager TM;
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  std::vector<Term> IntVars = {TM.mkVar("a", Sort::Int),
                               TM.mkVar("b", Sort::Int),
                               TM.mkVar("c", Sort::Int)};
  Term BoolVar = TM.mkVar("p", Sort::Bool);

  // Domain kept at [-2, 2]; atoms use small coefficients so that brute force
  // enumeration is meaningful, and explicit bounds make the query finite.
  auto RandomSum = [&]() {
    LinSum Sum = TM.sumOfConst(R.range(-2, 2));
    for (Term Var : IntVars)
      if (R.flip())
        Sum = TermManager::sumAdd(
            Sum, TermManager::sumScale(TM.sumOfVar(Var), R.range(-2, 2)));
    return Sum;
  };
  auto RandomAtom = [&]() -> Term {
    switch (R.below(4)) {
    case 0:
      return TM.mkLe(RandomSum(), RandomSum());
    case 1:
      return TM.mkEq(RandomSum(), RandomSum());
    case 2:
      return TM.mkNot(TM.mkEq(RandomSum(), RandomSum()));
    default:
      return R.flip() ? BoolVar : TM.mkNot(BoolVar);
    }
  };
  std::function<Term(int)> RandomFormula = [&](int Depth) -> Term {
    if (Depth == 0 || R.below(3) == 0)
      return RandomAtom();
    Term A = RandomFormula(Depth - 1);
    Term B = RandomFormula(Depth - 1);
    switch (R.below(3)) {
    case 0:
      return TM.mkAnd(A, B);
    case 1:
      return TM.mkOr(A, B);
    default:
      return TM.mkIff(A, B);
    }
  };

  std::vector<Term> Assertions;
  for (Term Var : IntVars) {
    Assertions.push_back(TM.mkLe(TM.sumOfConst(-2), TM.sumOfVar(Var)));
    Assertions.push_back(TM.mkLe(TM.sumOfVar(Var), TM.sumOfConst(2)));
  }
  Assertions.push_back(RandomFormula(3));
  Term Conjunction = TM.mkAnd(Assertions);

  // Brute force over the 5^3 * 2 grid.
  bool BruteSat = false;
  for (int64_t A = -2; A <= 2 && !BruteSat; ++A)
    for (int64_t B = -2; B <= 2 && !BruteSat; ++B)
      for (int64_t C = -2; C <= 2 && !BruteSat; ++C)
        for (int PB = 0; PB <= 1 && !BruteSat; ++PB) {
          Assignment Values;
          Values.IntValues[IntVars[0]] = A;
          Values.IntValues[IntVars[1]] = B;
          Values.IntValues[IntVars[2]] = C;
          Values.BoolValues[BoolVar] = PB == 1;
          BruteSat = evalFormula(Conjunction, Values);
          // Small values never overflow: checked evaluation agrees.
          ASSERT_EQ(evalFormulaChecked(Conjunction, Values), BruteSat);
        }

  Solver S(TM);
  S.assertFormula(Conjunction);
  SolverResult Result = S.check();
  ASSERT_NE(Result, SolverResult::Unknown);
  EXPECT_EQ(Result == SolverResult::Sat, BruteSat);
  if (Result == SolverResult::Sat) {
    EXPECT_TRUE(evalFormula(Conjunction, S.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandomFormula, ::testing::Range(0, 150));

//===----------------------------------------------------------------------===//
// Incremental sessions
//===----------------------------------------------------------------------===//

TEST_F(SolverTest, SessionPushPopRestoresSatisfiability) {
  QueryEngine QE(TM);
  auto Sess = QE.openSession();
  Session::Handle H = Sess->prepare(TM.mkGe(sx(), c(1)));
  EXPECT_EQ(Sess->checkUnder({H}), SolverResult::Sat);
  Sess->pushContext(TM.mkLe(sx(), c(0)));
  EXPECT_EQ(Sess->checkUnder({H}), SolverResult::Unsat);
  Sess->pop();
  EXPECT_EQ(Sess->checkUnder({H}), SolverResult::Sat);
}

TEST_F(SolverTest, SessionRetainedClausesNeverFlip) {
  QueryEngine QE(TM);
  auto Sess = QE.openSession();
  Session::Handle GeFive = Sess->prepare(TM.mkGe(sx(), c(5)));
  Session::Handle LeThree = Sess->prepare(TM.mkLe(sx(), c(3)));
  Session::Handle LeSeven = Sess->prepare(TM.mkLe(sx(), c(7)));
  // Alternate conflicting and satisfiable queries on one solver: lemmas
  // learned from the unsat pair must never contaminate the sat ones.
  for (int I = 0; I < 10; ++I) {
    EXPECT_TRUE(Sess->isUnsatUnder({GeFive, LeThree}));
    EXPECT_EQ(Sess->checkUnder({GeFive, LeSeven}), SolverResult::Sat);
    EXPECT_EQ(Sess->checkUnder({LeThree}), SolverResult::Sat);
  }
  // A memo hit yields no model; a premise set the session has not seen is
  // solved, and its Sat answer exposes a real model.
  EXPECT_EQ(Sess->checkUnder({GeFive, LeSeven}), SolverResult::Sat);
  EXPECT_EQ(Sess->lastModel(), nullptr);
  Session::Handle LeSix = Sess->prepare(TM.mkLe(sx(), c(6)));
  ASSERT_EQ(Sess->checkUnder({GeFive, LeSix}), SolverResult::Sat);
  const Assignment *Model = Sess->lastModel();
  ASSERT_NE(Model, nullptr);
  EXPECT_GE(Model->intValue(X), 5);
  EXPECT_LE(Model->intValue(X), 6);
  EXPECT_TRUE(Sess->isUnsatUnder({GeFive, LeThree}));
  EXPECT_EQ(Sess->lastModel(), nullptr);
}

TEST_F(SolverTest, SessionInterleavedPushPopStress) {
  QueryEngine QE(TM);
  auto Sess = QE.openSession();
  Rng R(20260809);
  // Premise pool: overlapping bounds over x and y so pushes conflict often.
  std::vector<Term> Pool;
  for (int B = -2; B <= 2; ++B) {
    Pool.push_back(TM.mkLe(sx(), c(B)));
    Pool.push_back(TM.mkGe(sx(), c(B)));
    Pool.push_back(TM.mkLe(sy(), c(B)));
    Pool.push_back(TM.mkGe(sy(), c(B)));
  }
  Term Link = TM.mkEq(TermManager::sumSub(sx(), sy()), c(1)); // x == y + 1
  Session::Handle LinkH = Sess->prepare(Link);

  std::vector<Term> Stack;
  for (int Step = 0; Step < 120; ++Step) {
    switch (R.below(3)) {
    case 0:
      Stack.push_back(Pool[R.below(Pool.size())]);
      Sess->pushContext(Stack.back());
      break;
    case 1:
      if (!Stack.empty()) {
        Sess->pop();
        Stack.pop_back();
      }
      break;
    default:
      break;
    }
    std::vector<Session::Handle> Assumed;
    if (R.flip())
      Assumed.push_back(LinkH);
    SolverResult Incremental = Sess->checkUnder(Assumed);
    // Reference: a throwaway solver on the same conjunction.
    Solver Fresh(TM);
    for (Term F : Stack)
      Fresh.assertFormula(F);
    if (!Assumed.empty())
      Fresh.assertFormula(Link);
    EXPECT_EQ(Incremental, Fresh.check()) << "step " << Step;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Checked evaluation and theory cores
//===----------------------------------------------------------------------===//

namespace {

TEST_F(SolverTest, CheckedEvalReportsOverflow) {
  // x + y + z at x = y = z = 2^62 leaves int64; so does 2^62 * 4.
  Assignment Big;
  for (Term V : {X, Y, Z})
    Big.IntValues[V] = int64_t(1) << 62;
  LinSum Three = TermManager::sumAdd(TermManager::sumAdd(sx(), sy()), sz());
  EXPECT_FALSE(evalSumChecked(Three, Big).has_value());
  EXPECT_FALSE(evalSumChecked(TermManager::sumScale(sx(), 4), Big));
  // -x - y = -2^63 is the int64 minimum: in range.
  LinSum NegTwo = TermManager::sumScale(TermManager::sumAdd(sx(), sy()), -1);
  EXPECT_EQ(evalSumChecked(NegTwo, Big), std::optional<int64_t>(INT64_MIN));
  // Three-valued junctions: a settling sibling decides, otherwise nothing.
  Term Over = TM.mkLeZero(Three);
  Term False = TM.mkLe(sx(), c(0)); // false under Big
  Term True = TM.mkGe(sx(), c(0));  // true under Big
  EXPECT_FALSE(evalFormulaChecked(Over, Big).has_value());
  EXPECT_FALSE(evalFormulaChecked(TM.mkNot(Over), Big).has_value());
  EXPECT_EQ(evalFormulaChecked(TM.mkAnd(Over, False), Big), false);
  EXPECT_FALSE(evalFormulaChecked(TM.mkAnd(Over, True), Big).has_value());
  EXPECT_EQ(evalFormulaChecked(TM.mkOr(Over, True), Big), true);
  EXPECT_FALSE(evalFormulaChecked(TM.mkOr(Over, False), Big).has_value());
}

class TheoryCoreTest : public ::testing::Test {
protected:
  TermManager TM;
  std::vector<Term> Vars = {TM.mkVar("a", Sort::Int), TM.mkVar("b", Sort::Int),
                            TM.mkVar("c", Sort::Int), TM.mkVar("d", Sort::Int)};

  /// A random atom sum_i k_i v_i + K <= 0 (or == 0) with small coefficients.
  LiaAtom randomAtom(Rng &R) {
    LinSum Sum = TM.sumOfConst(R.range(-6, 6));
    for (Term V : Vars)
      if (R.below(3) == 0)
        Sum = TermManager::sumAdd(
            Sum, TermManager::sumScale(TM.sumOfVar(V), R.range(-3, 3)));
    return {Sum, R.below(5) == 0};
  }

  /// Core must be Unsat and lose Unsat without any one of its atoms.
  void expectIrreducible(const std::vector<LiaAtom> &Atoms,
                         const std::vector<size_t> &Core) {
    LiaSolver Lia;
    std::vector<LiaAtom> Sub;
    for (size_t I : Core)
      Sub.push_back(Atoms[I]);
    ASSERT_EQ(Lia.check(Sub, {}, nullptr, nullptr), LiaResult::Unsat);
    for (size_t Drop = 0; Drop < Sub.size(); ++Drop) {
      std::vector<LiaAtom> Rest;
      for (size_t I = 0; I < Sub.size(); ++I)
        if (I != Drop)
          Rest.push_back(Sub[I]);
      EXPECT_NE(Lia.check(Rest, {}, nullptr, nullptr), LiaResult::Unsat)
          << "core atom " << Core[Drop] << " is redundant";
    }
  }
};

TEST_F(TheoryCoreTest, FarkasSeededCoreIsUnsatAndIrreducible) {
  // Random Unsat systems; the rationally infeasible ones take the seeded
  // path, and their core stays inside the certificate's support.
  int Seeded = 0;
  for (uint64_t Seed = 0; Seed < 300; ++Seed) {
    Rng R(Seed);
    std::vector<LiaAtom> Atoms;
    for (int I = 0; I < 8; ++I)
      Atoms.push_back(randomAtom(R));
    LiaSolver Lia;
    if (Lia.check(Atoms, {}, nullptr, nullptr) != LiaResult::Unsat)
      continue;
    std::vector<size_t> Core = Lia.unsatCore(Atoms);
    expectIrreducible(Atoms, Core);
    std::optional<std::vector<Rational>> Lambda = farkasCertificate(Atoms);
    if (!Lambda)
      continue;
    ASSERT_TRUE(isValidFarkasCertificate(Atoms, *Lambda)) << "seed " << Seed;
    ++Seeded;
    for (size_t I : Core)
      EXPECT_FALSE((*Lambda)[I].isZero())
          << "seed " << Seed << ": atom " << I << " outside the support";
  }
  EXPECT_GT(Seeded, 10);
}

TEST_F(TheoryCoreTest, IntegerOnlyInfeasibilityFiltersFullSet) {
  // 2a == 1 is feasible over the rationals: no certificate, so the core
  // comes from filtering the whole set.
  LinSum TwoA = TermManager::sumScale(TM.sumOfVar(Vars[0]), 2);
  TwoA.Constant -= 1;
  LinSum BLe = TM.sumOfVar(Vars[1]);
  BLe.Constant -= 3;
  std::vector<LiaAtom> Atoms = {{BLe, false}, {TwoA, true}};
  EXPECT_FALSE(farkasCertificate(Atoms).has_value());
  std::vector<size_t> Core = LiaSolver().unsatCore(Atoms);
  EXPECT_EQ(Core, std::vector<size_t>{1});
  expectIrreducible(Atoms, Core);
}

TEST_F(TheoryCoreTest, CorruptedCertificateIsRejected) {
  // a <= 0, b - a <= 0, 1 - b <= 0: multipliers (1, 1, 1) sum to 1 <= 0.
  LinSum A = TM.sumOfVar(Vars[0]);
  LinSum BMinusA = TermManager::sumSub(TM.sumOfVar(Vars[1]), A);
  LinSum OneMinusB = TermManager::sumScale(TM.sumOfVar(Vars[1]), -1);
  OneMinusB.Constant += 1;
  std::vector<LiaAtom> Atoms = {{A, false}, {BMinusA, false}, {OneMinusB, false}};
  std::optional<std::vector<Rational>> Lambda = farkasCertificate(Atoms);
  ASSERT_TRUE(Lambda.has_value());
  ASSERT_TRUE(isValidFarkasCertificate(Atoms, *Lambda));
  for (size_t I = 0; I < Atoms.size(); ++I) {
    std::vector<Rational> Scaled = *Lambda;
    Scaled[I] = Scaled[I] * Rational(2); // variables no longer cancel
    EXPECT_FALSE(isValidFarkasCertificate(Atoms, Scaled)) << "scaled " << I;
    std::vector<Rational> Negated = *Lambda;
    Negated[I] = -Negated[I]; // negative multiplier on an inequality
    EXPECT_FALSE(isValidFarkasCertificate(Atoms, Negated)) << "negated " << I;
  }
  std::vector<Rational> Short(Lambda->begin(), Lambda->end() - 1);
  EXPECT_FALSE(isValidFarkasCertificate(Atoms, Short));
  std::vector<Rational> Zero(Atoms.size(), Rational(0));
  EXPECT_FALSE(isValidFarkasCertificate(Atoms, Zero));
  // The core over the valid certificate is the whole (irreducible) chain.
  std::vector<size_t> Core = LiaSolver().unsatCore(Atoms);
  EXPECT_EQ(Core, (std::vector<size_t>{0, 1, 2}));
}

/// What a fixed stream of theory queries produced: every certificate,
/// every core and the solver's counters.
struct TheoryTranscript {
  std::vector<std::string> Certificates;
  std::vector<std::vector<size_t>> Cores;
  uint64_t Queries = 0;
  uint64_t TheoryRounds = 0;
};

/// Runs the random systems of FarkasSeededCoreIsUnsatAndIrreducible in a
/// fresh TermManager. With ReversedHeap, the variables' nodes land in
/// freed blocks that the allocator hands out highest address first, so
/// pointer order runs against creation (id) order.
TheoryTranscript theoryTranscript(bool ReversedHeap) {
  TermManager TM;
  std::vector<void *> Blocks;
  if (ReversedHeap) {
    for (int I = 0; I < 4; ++I)
      Blocks.push_back(::operator new(sizeof(TermNode)));
    std::sort(Blocks.begin(), Blocks.end());
    for (void *Block : Blocks)
      ::operator delete(Block);
  }
  std::vector<Term> Vars = {TM.mkVar("a", Sort::Int), TM.mkVar("b", Sort::Int),
                            TM.mkVar("c", Sort::Int), TM.mkVar("d", Sort::Int)};
  QueryEngine QE(TM);
  TheoryTranscript Out;
  for (uint64_t Seed = 0; Seed < 300; ++Seed) {
    Rng R(Seed);
    std::vector<LiaAtom> Atoms;
    std::vector<Term> Conjuncts;
    for (int I = 0; I < 8; ++I) {
      LinSum Sum = TM.sumOfConst(R.range(-6, 6));
      for (Term V : Vars)
        if (R.below(3) == 0)
          Sum = TermManager::sumAdd(
              Sum, TermManager::sumScale(TM.sumOfVar(V), R.range(-3, 3)));
      bool IsEq = R.below(5) == 0;
      Conjuncts.push_back(IsEq ? TM.mkEqZero(Sum) : TM.mkLeZero(Sum));
      Atoms.push_back({std::move(Sum), IsEq});
    }
    QE.checkSat(TM.mkAnd(std::move(Conjuncts)));
    std::string Certificate = "none";
    if (auto Lambda = farkasCertificate(Atoms)) {
      Certificate.clear();
      for (const Rational &L : *Lambda)
        Certificate += L.str() + " ";
    }
    Out.Certificates.push_back(Certificate);
    if (LiaSolver().check(Atoms, {}, nullptr, nullptr) == LiaResult::Unsat)
      Out.Cores.push_back(LiaSolver().unsatCore(Atoms));
  }
  Out.Queries = QE.numQueries();
  Out.TheoryRounds = QE.numTheoryRounds();
  return Out;
}

TEST(TheoryDeterminismTest, HeapHistoryDoesNotChangeCertificatesOrCounters) {
  TheoryTranscript Plain = theoryTranscript(false);
  TheoryTranscript Reversed = theoryTranscript(true);
  EXPECT_EQ(Plain.Certificates, Reversed.Certificates);
  EXPECT_EQ(Plain.Cores, Reversed.Cores);
  EXPECT_EQ(Plain.Queries, Reversed.Queries);
  EXPECT_EQ(Plain.TheoryRounds, Reversed.TheoryRounds);
  EXPECT_GT(Plain.TheoryRounds, 0u);
}

} // namespace
