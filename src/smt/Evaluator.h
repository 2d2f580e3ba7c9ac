//===- smt/Evaluator.h - Ground evaluation of terms -----------------------===//
///
/// \file
/// Evaluates formulas under a total assignment of the program variables.
/// Used by the explicit-state interpreter (bug-trace replay), by property
/// tests that cross-check the solver against brute-force enumeration, and by
/// the theory layer to validate candidate models. The checked variants
/// serve callers that draw conclusions from a model: they report integer
/// overflow instead of wrapping, so an overflowing sum decides nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SMT_EVALUATOR_H
#define SEQVER_SMT_EVALUATOR_H

#include "smt/Term.h"

#include <cstdint>
#include <map>
#include <optional>

namespace seqver {
namespace smt {

/// A total assignment: integer variables default to 0 and boolean variables
/// to false when not explicitly set.
struct Assignment {
  std::map<Term, int64_t> IntValues;
  std::map<Term, bool> BoolValues;

  int64_t intValue(Term Var) const {
    auto It = IntValues.find(Var);
    return It == IntValues.end() ? 0 : It->second;
  }
  bool boolValue(Term Var) const {
    auto It = BoolValues.find(Var);
    return It != BoolValues.end() && It->second;
  }
};

/// Evaluates a linear sum under Values.
int64_t evalSum(const LinSum &Sum, const Assignment &Values);

/// Evaluates a boolean-sorted term under Values.
bool evalFormula(Term Formula, const Assignment &Values);

/// evalSum with every product and partial sum overflow-checked; nullopt if
/// one leaves the int64 range.
std::optional<int64_t> evalSumChecked(const LinSum &Sum,
                                      const Assignment &Values);

/// evalFormula over checked sums, in three-valued logic: nullopt when the
/// value depends on an overflowing sum. A conjunction with a false conjunct
/// is false (and a disjunction with a true disjunct true) whatever its
/// overflowing siblings would give.
std::optional<bool> evalFormulaChecked(Term Formula, const Assignment &Values);

} // namespace smt
} // namespace seqver

#endif // SEQVER_SMT_EVALUATOR_H
