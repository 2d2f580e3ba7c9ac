//===- smt/LiaSolver.h - Linear integer arithmetic decisions --------------===//
///
/// \file
/// Decides conjunctions of linear integer constraints: the theory half of the
/// lazy DPLL(T) loop. Satisfiability over the rationals is delegated to the
/// simplex procedure; integrality is recovered by branch-and-bound with a
/// node budget (atom-level gcd tightening happens earlier, at term
/// construction, which keeps the search shallow on verification queries).
///
/// Within one check(), branch-and-bound children copy the solved parent
/// tableau and tighten one bound, so each node re-pivots from the parent's
/// basis instead of rebuilding from scratch. The solver keeps no state
/// across check() calls.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SMT_LIASOLVER_H
#define SEQVER_SMT_LIASOLVER_H

#include "smt/Evaluator.h"
#include "smt/Simplex.h"
#include "smt/Term.h"
#include "support/Rational.h"

#include <cstdint>
#include <vector>

namespace seqver {
namespace smt {

/// A positively asserted linear atom: Sum <= 0 (IsEq false) or Sum == 0.
struct LiaAtom {
  LinSum Sum;
  bool IsEq = false;
};

enum class LiaResult {
  Sat,     ///< integer model found (and all disequalities hold)
  Unsat,   ///< no integer model of the Le/Eq atoms
  Diseq,   ///< integer model found but it violates a disequality
  Unknown, ///< branch-and-bound budget exhausted
};

/// Decision procedure for conjunctions; stateless across calls.
class LiaSolver {
public:
  /// MaxNodes bounds the branch-and-bound tree per check.
  explicit LiaSolver(uint64_t MaxNodes = 20000) : MaxNodes(MaxNodes) {}

  /// Decides Atoms /\ (each Diseq != 0). On Sat fills Model (for every
  /// variable occurring in Atoms or Diseqs); on Diseq additionally sets
  /// ViolatedDiseq to the index of a violated disequality.
  LiaResult check(const std::vector<LiaAtom> &Atoms,
                  const std::vector<LinSum> &Diseqs, Assignment *Model,
                  size_t *ViolatedDiseq);

  /// Given that Atoms alone are Unsat, shrinks them to an irreducible
  /// unsat core; returns indices into Atoms. When the atoms are already
  /// infeasible over the rationals, a validated Farkas certificate
  /// (smt/Farkas.h) seeds the core with the atoms of nonzero multiplier;
  /// otherwise (integer-only infeasibility, or a certificate that fails
  /// validation) the whole set is the seed. A deletion filter then drops
  /// every seed atom whose removal keeps the conjunction Unsat.
  std::vector<size_t> unsatCore(const std::vector<LiaAtom> &Atoms);

private:
  /// Integer search below the rationally feasible Root; fills ModelOut
  /// (indexed like Vars) on Sat.
  LiaResult branchAndBound(Simplex Root, const std::vector<Term> &Vars,
                           std::vector<Rational> &ModelOut,
                           uint64_t &NodeBudget);

  uint64_t MaxNodes;
};

} // namespace smt
} // namespace seqver

#endif // SEQVER_SMT_LIASOLVER_H
