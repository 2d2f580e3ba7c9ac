//===- core/Interpolation.cpp - Farkas sequence interpolants --------------===//

#include "core/Interpolation.h"

#include "smt/Farkas.h"
#include "support/Rational.h"

#include <cassert>

using namespace seqver;
using namespace seqver::core;
using seqver::smt::LiaAtom;
using seqver::smt::LinSum;
using seqver::smt::Sort;
using seqver::smt::Term;
using seqver::smt::TermManager;
using seqver::smt::TermMap;

namespace {

/// Maximum number of boolean shadows tolerated in one interpolant before
/// the 2^k de-shadowing disjunction is considered too large.
constexpr size_t MaxShadowsPerInterpolant = 3;

/// SSA encoder: program variables to versioned solver variables; booleans
/// to 0/1 integer shadows.
class SsaEncoder {
public:
  SsaEncoder(TermManager &TM) : TM(TM) {}

  /// Current SSA variable of a program variable (version 0 on first use).
  Term current(Term ProgramVar) {
    auto It = Versions.find(ProgramVar);
    if (It == Versions.end()) {
      It = Versions.emplace(ProgramVar, 0).first;
      return ssaVar(ProgramVar, 0);
    }
    return ssaVar(ProgramVar, It->second);
  }

  /// Fresh SSA version for an assignment/havoc target.
  Term bump(Term ProgramVar) {
    int &Version = Versions[ProgramVar];
    current(ProgramVar); // materialize version 0 bookkeeping
    ++Version;
    return ssaVar(ProgramVar, Version);
  }

  /// Sum over SSA variables for an expression over program variables.
  LinSum encodeSum(const LinSum &Expr) {
    LinSum Out = TM.sumOfConst(Expr.Constant);
    for (const auto &[Var, Coeff] : Expr.Terms)
      Out = TermManager::sumAdd(
          Out, TermManager::sumScale(TM.sumOfVar(current(Var)), Coeff));
    return Out;
  }

  /// Encodes a boolean-sorted program formula as a conjunction of atoms in
  /// the current state; false if out of fragment.
  bool encodeFormula(Term Formula, std::vector<LiaAtom> &Out) {
    switch (Formula->kind()) {
    case smt::TermKind::BoolConst:
      if (Formula->boolValue())
        return true;
      Out.push_back({TM.sumOfConst(1), /*IsEq=*/false}); // 1 <= 0: false
      return true;
    case smt::TermKind::And:
      for (Term Child : Formula->children())
        if (!encodeFormula(Child, Out))
          return false;
      return true;
    case smt::TermKind::BoolVar: {
      LinSum Sum = TM.sumOfVar(current(Formula));
      Sum.Constant -= 1;
      Out.push_back({std::move(Sum), /*IsEq=*/true}); // shadow == 1
      return true;
    }
    case smt::TermKind::Not: {
      Term Inner = Formula->child(0);
      if (Inner->kind() != smt::TermKind::BoolVar)
        return false; // disequalities / negated structure: out of fragment
      Out.push_back({TM.sumOfVar(current(Inner)), /*IsEq=*/true}); // == 0
      return true;
    }
    case smt::TermKind::AtomLe:
    case smt::TermKind::AtomEq: {
      LiaAtom Atom;
      Atom.Sum = encodeSum(Formula->sum());
      Atom.IsEq = Formula->kind() == smt::TermKind::AtomEq;
      Out.push_back(std::move(Atom));
      return true;
    }
    default:
      return false; // Or / Iff: out of fragment
    }
  }

  /// 0 <= shadow <= 1 domain atoms.
  void addShadowDomain(Term SsaShadow, std::vector<LiaAtom> &Out) {
    LinSum Lower = TermManager::sumScale(TM.sumOfVar(SsaShadow), -1);
    Out.push_back({std::move(Lower), false}); // -s <= 0
    LinSum Upper = TM.sumOfVar(SsaShadow);
    Upper.Constant -= 1;
    Out.push_back({std::move(Upper), false}); // s - 1 <= 0
  }

  /// Snapshot of the current version of every seen program variable.
  TermMap<Term> snapshot() {
    TermMap<Term> Out;
    for (const auto &[Var, Version] : Versions)
      Out.emplace(ssaVar(Var, Version), Var);
    return Out;
  }

private:
  Term ssaVar(Term ProgramVar, int Version) {
    // Shadows and versions live in the Int sort regardless of the program
    // sort; the name cannot clash with source identifiers ('@' is not an
    // identifier character).
    Term Out = TM.mkVar(ProgramVar->name() + "@" + std::to_string(Version),
                        Sort::Int);
    ProgramVarOf.emplace(Out, ProgramVar);
    return Out;
  }

  TermManager &TM;
  TermMap<int> Versions;

public:
  /// SSA variable -> program variable (filled lazily by ssaVar).
  TermMap<Term> ProgramVarOf;
};

/// Encodes one action into atoms; false if out of fragment.
bool encodeAction(TermManager &TM, SsaEncoder &Ssa, const prog::Action &A,
                  std::vector<LiaAtom> &Out) {
  for (const prog::Prim &P : A.Prims) {
    switch (P.K) {
    case prog::Prim::Kind::Assume:
      if (!Ssa.encodeFormula(P.Guard, Out))
        return false;
      break;
    case prog::Prim::Kind::AssignInt: {
      LinSum Rhs = Ssa.encodeSum(P.IntValue);
      Term Next = Ssa.bump(P.Var);
      LinSum Eq = TermManager::sumSub(TM.sumOfVar(Next), Rhs);
      Out.push_back({std::move(Eq), /*IsEq=*/true});
      break;
    }
    case prog::Prim::Kind::AssignBool: {
      // Supported rhs: constants, a boolean variable, or its negation.
      Term Rhs = P.BoolValue;
      LinSum Value;
      if (Rhs->kind() == smt::TermKind::BoolConst) {
        Value = TM.sumOfConst(Rhs->boolValue() ? 1 : 0);
      } else if (Rhs->kind() == smt::TermKind::BoolVar) {
        Value = TM.sumOfVar(Ssa.current(Rhs));
      } else if (Rhs->kind() == smt::TermKind::Not &&
                 Rhs->child(0)->kind() == smt::TermKind::BoolVar) {
        Value = TermManager::sumScale(
            TM.sumOfVar(Ssa.current(Rhs->child(0))), -1);
        Value.Constant += 1; // 1 - s
      } else {
        return false;
      }
      Term Next = Ssa.bump(P.Var);
      LinSum Eq = TermManager::sumSub(TM.sumOfVar(Next), Value);
      Out.push_back({std::move(Eq), /*IsEq=*/true});
      break;
    }
    case prog::Prim::Kind::Havoc: {
      Term Next = Ssa.bump(P.Var);
      if (P.Var->sort() == Sort::Bool)
        Ssa.addShadowDomain(Next, Out);
      // Integer havoc: fresh unconstrained version.
      break;
    }
    }
  }
  return true;
}

/// Rewrites a partial-sum inequality (over SSA variables) into a predicate
/// over program variables; Cut maps the SSA variables live at this cut to
/// their program variables. Returns null if out of fragment.
Term deSsa(TermManager &TM, const TermMap<Rational> &Coeffs,
           const Rational &ConstantIn,
           const TermMap<Term> &CutSnapshot) {
  // Scale to integer coefficients.
  int64_t Denominator = 1;
  for (const auto &[Var, Coeff] : Coeffs) {
    (void)Var;
    Denominator = Denominator / gcd64(Denominator, Coeff.den()) * Coeff.den();
  }
  Denominator =
      Denominator / gcd64(Denominator, ConstantIn.den()) * ConstantIn.den();

  LinSum IntPart = TM.sumOfConst(
      (ConstantIn * Rational(Denominator)).num());
  std::vector<std::pair<Term, int64_t>> Shadows; // program bool var, coeff
  for (const auto &[SsaVariable, Coeff] : Coeffs) {
    if (Coeff.isZero())
      continue;
    auto It = CutSnapshot.find(SsaVariable);
    if (It == CutSnapshot.end())
      return nullptr; // references a non-live SSA version: give up
    Term ProgramVar = It->second;
    int64_t IntCoeff = (Coeff * Rational(Denominator)).num();
    if (ProgramVar->sort() == Sort::Int) {
      IntPart = TermManager::sumAdd(
          IntPart,
          TermManager::sumScale(TM.sumOfVar(ProgramVar), IntCoeff));
    } else {
      Shadows.emplace_back(ProgramVar, IntCoeff);
    }
  }
  if (Shadows.size() > MaxShadowsPerInterpolant)
    return nullptr;

  // Enumerate boolean valuations of the shadows:
  //   OR over sigma of (literals of sigma) /\ (int part + sigma-offset <= 0)
  std::vector<Term> Disjuncts;
  size_t Combos = size_t(1) << Shadows.size();
  for (size_t Mask = 0; Mask < Combos; ++Mask) {
    std::vector<Term> Conjuncts;
    LinSum Sum = IntPart;
    for (size_t I = 0; I < Shadows.size(); ++I) {
      bool Value = (Mask >> I) & 1;
      Conjuncts.push_back(Value ? Shadows[I].first
                                : TM.mkNot(Shadows[I].first));
      if (Value)
        Sum.Constant += Shadows[I].second;
    }
    Conjuncts.push_back(TM.mkLeZero(Sum));
    Disjuncts.push_back(TM.mkAnd(std::move(Conjuncts)));
  }
  return TM.mkOr(std::move(Disjuncts));
}

} // namespace

TraceInterpolation seqver::core::sequenceInterpolants(
    TermManager &TM, const prog::ConcurrentProgram &P,
    const std::vector<automata::Letter> &Trace, Term FinalObligation) {
  TraceInterpolation Result;
  SsaEncoder Ssa(TM);

  // Blocks: B_0 = initial constraint + bool domains, B_1..B_n = actions,
  // B_{n+1} = negated obligation (skipped when the obligation is false).
  std::vector<std::vector<LiaAtom>> Blocks;
  Blocks.emplace_back();
  if (!Ssa.encodeFormula(P.initialConstraint(), Blocks.back()))
    return Result;
  for (Term Var : P.globals())
    if (Var->sort() == Sort::Bool)
      Ssa.addShadowDomain(Ssa.current(Var), Blocks.back());

  std::vector<TermMap<Term>> CutSnapshots; // after B_0..B_n
  CutSnapshots.push_back(Ssa.snapshot());
  for (automata::Letter L : Trace) {
    Blocks.emplace_back();
    if (!encodeAction(TM, Ssa, P.action(L), Blocks.back()))
      return Result;
    CutSnapshots.push_back(Ssa.snapshot());
  }
  if (FinalObligation && FinalObligation != TM.mkFalse()) {
    Term Negated = TM.mkNot(FinalObligation);
    Blocks.emplace_back();
    if (!Ssa.encodeFormula(Negated, Blocks.back()))
      return Result;
  }

  // Flatten for the certificate; remember each atom's block.
  std::vector<LiaAtom> Atoms;
  std::vector<size_t> BlockOf;
  for (size_t B = 0; B < Blocks.size(); ++B)
    for (LiaAtom &Atom : Blocks[B]) {
      Atoms.push_back(std::move(Atom));
      BlockOf.push_back(B);
    }

  auto Lambda = smt::farkasCertificate(Atoms);
  if (!Lambda)
    return Result; // rationally feasible (or no strict combination)
  assert(smt::isValidFarkasCertificate(Atoms, *Lambda) &&
         "simplex produced an invalid certificate");

  // Partial sums at cuts 0..n (after blocks B_0..B_n).
  size_t NumCuts = Trace.size() + 1;
  for (size_t Cut = 0; Cut < NumCuts; ++Cut) {
    TermMap<Rational> Coeffs;
    Rational Constant(0);
    for (size_t I = 0; I < Atoms.size(); ++I) {
      if (BlockOf[I] > Cut)
        continue;
      for (const auto &[Var, Coeff] : Atoms[I].Sum.Terms)
        Coeffs[Var] += (*Lambda)[I] * Rational(Coeff);
      Constant += (*Lambda)[I] * Rational(Atoms[I].Sum.Constant);
    }
    Term Interpolant = deSsa(TM, Coeffs, Constant, CutSnapshots[Cut]);
    if (!Interpolant)
      return Result;
    Result.Chain.push_back(Interpolant);
  }
  Result.Success = true;
  return Result;
}
