//===- smt/LiaSolver.cpp - Linear integer arithmetic decisions ------------===//

#include "smt/LiaSolver.h"

#include "smt/Farkas.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace seqver;
using namespace seqver::smt;

namespace {

/// Collects the (deduplicated, id-sorted) variables of all sums.
std::vector<Term> collectVars(const std::vector<LiaAtom> &Atoms,
                              const std::vector<LinSum> &Diseqs) {
  std::vector<Term> Vars;
  auto AddSum = [&Vars](const LinSum &Sum) {
    for (const auto &[Var, Coeff] : Sum.Terms) {
      (void)Coeff;
      Vars.push_back(Var);
    }
  };
  for (const LiaAtom &Atom : Atoms)
    AddSum(Atom.Sum);
  for (const LinSum &Sum : Diseqs)
    AddSum(Sum);
  std::sort(Vars.begin(), Vars.end(),
            [](Term A, Term B) { return A->id() < B->id(); });
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return Vars;
}

/// Builds the root tableau: one column per variable, one slack row per
/// atom, bounds carrying the atoms' constants.
void buildRoot(Simplex &Splx, const std::vector<LiaAtom> &Atoms,
               const std::vector<Term> &Vars) {
  std::map<Term, int> VarIndex;
  for (size_t I = 0; I < Vars.size(); ++I) {
    int Col = Splx.addVar();
    (void)Col;
    assert(Col == static_cast<int>(I) && "column indices drifted");
    VarIndex[Vars[I]] = static_cast<int>(I);
  }
  for (const LiaAtom &Atom : Atoms) {
    std::vector<std::pair<int, Rational>> Definition;
    Definition.reserve(Atom.Sum.Terms.size());
    for (const auto &[Var, Coeff] : Atom.Sum.Terms)
      Definition.emplace_back(VarIndex.at(Var), Rational(Coeff));
    int Slack = Splx.addSlack(Definition);
    // Sum + Constant <= 0 (or == 0) where Slack carries the variable part.
    Rational Bound(-Atom.Sum.Constant);
    Splx.setUpper(Slack, Bound);
    if (Atom.IsEq)
      Splx.setLower(Slack, Bound);
  }
}

} // namespace

LiaResult LiaSolver::branchAndBound(Simplex Node,
                                    const std::vector<Term> &Vars,
                                    std::vector<Rational> &ModelOut,
                                    uint64_t &NodeBudget) {
  // Depth-first, the left branch (x <= floor) before the right one
  // (x >= ceil). Pending holds the solved nodes whose left subtree is being
  // searched: an infeasible subtree resumes at the right branch of the
  // innermost one. The depth can reach the node budget, so it lives on the
  // heap, not the call stack. Each branch copies the solved parent and
  // tightens one bound, so the child's check() re-pivots from the parent's
  // basis instead of rebuilding the tableau from scratch.
  struct Branch {
    Simplex Node;
    int Var;
    int64_t Ceil;
  };
  std::vector<Branch> Pending;
  for (;;) {
    // Node is rationally feasible; find a fractional variable to branch on.
    size_t Fractional = Vars.size();
    for (size_t I = 0; I < Vars.size(); ++I) {
      if (!Node.value(static_cast<int>(I)).isIntegral()) {
        Fractional = I;
        break;
      }
    }
    if (Fractional == Vars.size()) {
      ModelOut.resize(Vars.size());
      for (size_t I = 0; I < Vars.size(); ++I)
        ModelOut[I] = Node.value(static_cast<int>(I));
      return LiaResult::Sat;
    }
    int Var = static_cast<int>(Fractional);
    Rational Value = Node.value(Var);

    if (NodeBudget == 0)
      return LiaResult::Unknown;
    --NodeBudget;
    Simplex Left = Node;
    Left.setUpper(Var, Rational(Value.floor()));
    if (Left.check() == Simplex::Result::Sat) {
      Pending.push_back({std::move(Node), Var, Value.ceil()});
      Node = std::move(Left);
      continue;
    }

    // Right branches: of Node, then of each pending node in turn while the
    // right child is infeasible.
    int64_t Ceil = Value.ceil();
    for (;;) {
      if (NodeBudget == 0)
        return LiaResult::Unknown;
      --NodeBudget;
      Node.setLower(Var, Rational(Ceil));
      if (Node.check() == Simplex::Result::Sat)
        break;
      if (Pending.empty())
        return LiaResult::Unsat;
      Node = std::move(Pending.back().Node);
      Var = Pending.back().Var;
      Ceil = Pending.back().Ceil;
      Pending.pop_back();
    }
  }
}

LiaResult LiaSolver::check(const std::vector<LiaAtom> &Atoms,
                           const std::vector<LinSum> &Diseqs,
                           Assignment *Model, size_t *ViolatedDiseq) {
  std::vector<Term> Vars = collectVars(Atoms, Diseqs);
  uint64_t Budget = MaxNodes;
  if (Budget == 0)
    return LiaResult::Unknown;
  --Budget; // the root check is the first node

  Simplex Root;
  buildRoot(Root, Atoms, Vars);
  if (Root.check() != Simplex::Result::Sat)
    return LiaResult::Unsat;

  std::vector<Rational> Values;
  LiaResult Result = branchAndBound(std::move(Root), Vars, Values, Budget);
  if (Result != LiaResult::Sat)
    return Result;

  Assignment Candidate;
  for (size_t I = 0; I < Vars.size(); ++I) {
    assert(Values[I].isIntegral() && "non-integral model escaped B&B");
    Candidate.IntValues[Vars[I]] = Values[I].num();
  }
  for (size_t I = 0; I < Diseqs.size(); ++I) {
    if (evalSum(Diseqs[I], Candidate) == 0) {
      if (ViolatedDiseq)
        *ViolatedDiseq = I;
      if (Model)
        *Model = std::move(Candidate);
      return LiaResult::Diseq;
    }
  }
  if (Model)
    *Model = std::move(Candidate);
  return LiaResult::Sat;
}

std::vector<size_t> LiaSolver::unsatCore(const std::vector<LiaAtom> &Atoms) {
  // Seed: the support of a validated Farkas certificate is a rationally
  // (hence integrally) infeasible subset, usually far smaller than Atoms.
  std::vector<size_t> Kept;
  std::optional<std::vector<Rational>> Lambda = farkasCertificate(Atoms);
  if (Lambda && isValidFarkasCertificate(Atoms, *Lambda)) {
    for (size_t I = 0; I < Atoms.size(); ++I)
      if (!(*Lambda)[I].isZero())
        Kept.push_back(I);
  } else {
    Kept.resize(Atoms.size());
    for (size_t I = 0; I < Atoms.size(); ++I)
      Kept[I] = I;
  }

  // Deletion filter: drop an atom if the rest stays Unsat. Unknown results
  // conservatively keep the atom (the core stays an over-approximation,
  // which is sound for blocking clauses).
  for (size_t I = 0; I < Kept.size();) {
    std::vector<LiaAtom> Candidate;
    Candidate.reserve(Kept.size() - 1);
    for (size_t K = 0; K < Kept.size(); ++K)
      if (K != I)
        Candidate.push_back(Atoms[Kept[K]]);
    if (check(Candidate, {}, nullptr, nullptr) == LiaResult::Unsat)
      Kept.erase(Kept.begin() + static_cast<ptrdiff_t>(I));
    else
      ++I;
  }
  return Kept;
}
