//===- smt/Farkas.cpp - Farkas infeasibility certificates -----------------===//

#include "smt/Farkas.h"

#include "smt/Simplex.h"

#include <algorithm>

using namespace seqver;
using namespace seqver::smt;

std::optional<std::vector<Rational>>
seqver::smt::farkasCertificate(const std::vector<LiaAtom> &Atoms) {
  // Split every Eq atom into <= and >= inequalities; SplitOf maps each
  // split inequality back to (atom index, sign).
  struct Split {
    size_t AtomIndex;
    int Sign; // +1: the atom's sum, -1: its negation (Eq only)
  };
  std::vector<Split> Splits;
  for (size_t I = 0; I < Atoms.size(); ++I) {
    Splits.push_back({I, +1});
    if (Atoms[I].IsEq)
      Splits.push_back({I, -1});
  }

  // Dual feasibility LP: lambda_s >= 0 for each split inequality;
  //   for each variable v:  sum_s lambda_s * coeff_s(v) == 0
  //   sum_s lambda_s * constant_s >= 1   (scalable stand-in for > 0)
  Simplex LP;
  std::vector<int> LambdaVar(Splits.size());
  for (size_t S = 0; S < Splits.size(); ++S) {
    LambdaVar[S] = LP.addVar();
    LP.setLower(LambdaVar[S], Rational(0));
  }

  // Collect all program variables.
  TermMap<std::vector<std::pair<size_t, int64_t>>> VarOccurrences;
  for (size_t S = 0; S < Splits.size(); ++S) {
    const LinSum &Sum = Atoms[Splits[S].AtomIndex].Sum;
    for (const auto &[Var, Coeff] : Sum.Terms)
      VarOccurrences[Var].emplace_back(S, Coeff * Splits[S].Sign);
  }
  for (const auto &[Var, Occurrences] : VarOccurrences) {
    (void)Var;
    std::vector<std::pair<int, Rational>> Definition;
    for (const auto &[S, Coeff] : Occurrences)
      Definition.emplace_back(LambdaVar[S], Rational(Coeff));
    int Slack = LP.addSlack(Definition);
    LP.setLower(Slack, Rational(0));
    LP.setUpper(Slack, Rational(0));
  }
  {
    std::vector<std::pair<int, Rational>> Objective;
    for (size_t S = 0; S < Splits.size(); ++S) {
      int64_t K = Atoms[Splits[S].AtomIndex].Sum.Constant * Splits[S].Sign;
      if (K != 0)
        Objective.emplace_back(LambdaVar[S], Rational(K));
    }
    if (Objective.empty())
      return std::nullopt; // all constants zero: no strict contradiction
    int Slack = LP.addSlack(Objective);
    LP.setLower(Slack, Rational(1));
  }

  if (LP.check() != Simplex::Result::Sat)
    return std::nullopt;

  std::vector<Rational> Lambda(Atoms.size(), Rational(0));
  for (size_t S = 0; S < Splits.size(); ++S) {
    Rational Value = LP.value(LambdaVar[S]);
    if (Splits[S].Sign > 0)
      Lambda[Splits[S].AtomIndex] += Value;
    else
      Lambda[Splits[S].AtomIndex] -= Value;
  }
  return Lambda;
}

bool seqver::smt::isValidFarkasCertificate(
    const std::vector<LiaAtom> &Atoms, const std::vector<Rational> &Lambda) {
  if (Lambda.size() != Atoms.size())
    return false;
  // Nonnegativity for inequalities (Eq multipliers may have either sign).
  for (size_t I = 0; I < Atoms.size(); ++I)
    if (!Atoms[I].IsEq && Lambda[I].isNegative())
      return false;
  // Combination must be a positive constant (variables cancel).
  TermMap<Rational> Coeffs;
  Rational Constant(0);
  for (size_t I = 0; I < Atoms.size(); ++I) {
    for (const auto &[Var, Coeff] : Atoms[I].Sum.Terms)
      Coeffs[Var] += Lambda[I] * Rational(Coeff);
    Constant += Lambda[I] * Rational(Atoms[I].Sum.Constant);
  }
  for (const auto &[Var, Coeff] : Coeffs) {
    (void)Var;
    if (!Coeff.isZero())
      return false;
  }
  return Constant.isPositive();
}
