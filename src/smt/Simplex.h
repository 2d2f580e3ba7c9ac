//===- smt/Simplex.h - General simplex over the rationals -----------------===//
///
/// \file
/// A non-incremental general simplex procedure in the style of Dutertre and
/// de Moura (the standard SMT simplex): variables carry optional lower/upper
/// bounds, slack variables are defined by linear rows, and a Bland-rule pivot
/// loop either finds a rational assignment within all bounds or reports
/// unsatisfiability. The integer layer (LiaSolver) drives it inside a
/// branch-and-bound search.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SMT_SIMPLEX_H
#define SEQVER_SMT_SIMPLEX_H

#include "support/Rational.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace seqver {
namespace smt {

/// Build, bound, check, read model. All state is value-typed, so copying an
/// instance clones the tableau *including the current basis*: the integer
/// layer branches by copying a solved parent, tightening one bound, and
/// re-running check(), which re-pivots from the inherited basis instead of
/// from scratch.
class Simplex {
public:
  enum class Result { Sat, Unsat };

  /// Creates a structural variable (column); returns its index.
  int addVar();

  /// Creates a slack variable defined as the given linear combination of
  /// existing variables; returns its index. Must be called before check().
  int addSlack(const std::vector<std::pair<int, Rational>> &Definition);

  /// Tightens the lower bound of Var to at least Value.
  void setLower(int Var, const Rational &Value);
  /// Tightens the upper bound of Var to at most Value.
  void setUpper(int Var, const Rational &Value);

  /// Runs the pivot loop. Terminating by Bland's rule.
  Result check();

  /// Value of Var in the satisfying assignment (valid after Sat).
  const Rational &value(int Var) const { return Beta[Var]; }

  int numVars() const { return static_cast<int>(Beta.size()); }

private:
  static constexpr int NoRow = -1;

  struct Row {
    int BasicVar;
    /// Dense coefficients over all variables; entry of BasicVar is unused.
    std::vector<Rational> Coeffs;
  };

  bool withinLower(int Var) const {
    return !Lower[Var] || *Lower[Var] <= Beta[Var];
  }
  bool withinUpper(int Var) const {
    return !Upper[Var] || Beta[Var] <= *Upper[Var];
  }

  void initializeAssignment();
  void pivot(int RowIndex, int EnteringVar);

  std::vector<std::optional<Rational>> Lower;
  std::vector<std::optional<Rational>> Upper;
  std::vector<Rational> Beta;
  /// Row index owning each variable, or NoRow if nonbasic.
  std::vector<int> RowOf;
  std::vector<Row> Rows;
  bool Initialized = false;
};

} // namespace smt
} // namespace seqver

#endif // SEQVER_SMT_SIMPLEX_H
