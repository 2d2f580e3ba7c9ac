//===- smt/Simplex.cpp - General simplex over the rationals ---------------===//

#include "smt/Simplex.h"

#include <cassert>

using namespace seqver;
using namespace seqver::smt;

int Simplex::addVar() {
  assert(!Initialized && "structure frozen after check()");
  int Var = numVars();
  Lower.emplace_back();
  Upper.emplace_back();
  Beta.emplace_back();
  RowOf.push_back(NoRow);
  for (Row &R : Rows)
    R.Coeffs.emplace_back();
  return Var;
}

int Simplex::addSlack(const std::vector<std::pair<int, Rational>> &Definition) {
  int Slack = addVar();
  Row R;
  R.BasicVar = Slack;
  R.Coeffs.assign(numVars(), Rational());
  for (const auto &[Var, Coeff] : Definition) {
    assert(Var < Slack && "slack defined over a later variable");
    // A variable used in the definition may itself be a slack (basic); we
    // only allow structural variables here for simplicity, which is all
    // LiaSolver needs.
    assert(RowOf[Var] == NoRow && "slack defined over a basic variable");
    R.Coeffs[Var] += Coeff;
  }
  RowOf[Slack] = static_cast<int>(Rows.size());
  Rows.push_back(std::move(R));
  return Slack;
}

void Simplex::setLower(int Var, const Rational &Value) {
  if (!Lower[Var] || *Lower[Var] < Value)
    Lower[Var] = Value;
}

void Simplex::setUpper(int Var, const Rational &Value) {
  if (!Upper[Var] || Value < *Upper[Var])
    Upper[Var] = Value;
}

void Simplex::initializeAssignment() {
  // Nonbasic variables: pick a value within bounds (0 if allowed).
  for (int Var = 0; Var < numVars(); ++Var) {
    if (RowOf[Var] != NoRow)
      continue;
    Rational Value;
    if (Lower[Var] && Value < *Lower[Var])
      Value = *Lower[Var];
    if (Upper[Var] && *Upper[Var] < Value)
      Value = *Upper[Var];
    Beta[Var] = Value;
  }
  // Basic variables: evaluate their rows.
  for (Row &R : Rows) {
    Rational Value;
    for (int Var = 0; Var < numVars(); ++Var) {
      if (Var == R.BasicVar || R.Coeffs[Var].isZero())
        continue;
      Value += R.Coeffs[Var] * Beta[Var];
    }
    Beta[R.BasicVar] = Value;
  }
  Initialized = true;
}

void Simplex::pivot(int RowIndex, int EnteringVar) {
  Row &PivotRow = Rows[RowIndex];
  int LeavingVar = PivotRow.BasicVar;
  Rational PivotCoeff = PivotRow.Coeffs[EnteringVar];
  assert(!PivotCoeff.isZero() && "pivot on zero coefficient");

  // Rewrite the pivot row to define EnteringVar:
  //   leaving = sum(a_m * m) => entering = (leaving - sum_{m != entering}) / a
  std::vector<Rational> NewCoeffs(numVars());
  for (int Var = 0; Var < numVars(); ++Var) {
    if (Var == EnteringVar || Var == LeavingVar)
      continue;
    if (!PivotRow.Coeffs[Var].isZero())
      NewCoeffs[Var] = -(PivotRow.Coeffs[Var] / PivotCoeff);
  }
  NewCoeffs[LeavingVar] = Rational(1) / PivotCoeff;
  PivotRow.Coeffs = std::move(NewCoeffs);
  PivotRow.BasicVar = EnteringVar;
  RowOf[EnteringVar] = RowIndex;
  RowOf[LeavingVar] = NoRow;

  // Substitute the new definition into all other rows.
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (static_cast<int>(I) == RowIndex)
      continue;
    Row &R = Rows[I];
    Rational Factor = R.Coeffs[EnteringVar];
    if (Factor.isZero())
      continue;
    R.Coeffs[EnteringVar] = Rational();
    for (int Var = 0; Var < numVars(); ++Var) {
      if (Var == R.BasicVar)
        continue;
      if (!PivotRow.Coeffs[Var].isZero())
        R.Coeffs[Var] += Factor * PivotRow.Coeffs[Var];
    }
  }
}

Simplex::Result Simplex::check() {
  // Bound sanity: lower > upper is immediately unsat.
  for (int Var = 0; Var < numVars(); ++Var)
    if (Lower[Var] && Upper[Var] && *Upper[Var] < *Lower[Var])
      return Result::Unsat;

  if (!Initialized)
    initializeAssignment();

  for (;;) {
    // Bland's rule: smallest violating basic variable.
    int Violating = -1;
    bool NeedsIncrease = false;
    for (int Var = 0; Var < numVars(); ++Var) {
      if (RowOf[Var] == NoRow)
        continue;
      if (!withinLower(Var)) {
        Violating = Var;
        NeedsIncrease = true;
        break;
      }
      if (!withinUpper(Var)) {
        Violating = Var;
        NeedsIncrease = false;
        break;
      }
    }
    if (Violating == -1)
      return Result::Sat;

    Row &R = Rows[RowOf[Violating]];
    Rational Target = NeedsIncrease ? *Lower[Violating] : *Upper[Violating];

    // Bland's rule: smallest suitable nonbasic variable.
    int Entering = -1;
    for (int Var = 0; Var < numVars(); ++Var) {
      if (Var == Violating || RowOf[Var] != NoRow)
        continue;
      const Rational &Coeff = R.Coeffs[Var];
      if (Coeff.isZero())
        continue;
      bool CanIncrease = !Upper[Var] || Beta[Var] < *Upper[Var];
      bool CanDecrease = !Lower[Var] || *Lower[Var] < Beta[Var];
      bool Suitable =
          NeedsIncrease
              ? ((Coeff.isPositive() && CanIncrease) ||
                 (Coeff.isNegative() && CanDecrease))
              : ((Coeff.isPositive() && CanDecrease) ||
                 (Coeff.isNegative() && CanIncrease));
      if (Suitable) {
        Entering = Var;
        break;
      }
    }
    if (Entering == -1)
      return Result::Unsat;

    // pivotAndUpdate(Violating, Entering, Target): pivot Violating out and
    // Entering in, then fix the (now nonbasic) Violating exactly at the
    // violated bound and recompute all basic values from the nonbasics.
    // (Recomputing is O(rows * vars) per pivot; the tableaux here are small
    // and this keeps the invariant maintenance trivially correct.)
    int RowIndex = RowOf[Violating];
    pivot(RowIndex, Entering);
    Beta[Violating] = Target;
    for (Row &Recompute : Rows) {
      Rational Value;
      for (int Var = 0; Var < numVars(); ++Var) {
        if (Var == Recompute.BasicVar || Recompute.Coeffs[Var].isZero())
          continue;
        Value += Recompute.Coeffs[Var] * Beta[Var];
      }
      Beta[Recompute.BasicVar] = Value;
    }
  }
}
