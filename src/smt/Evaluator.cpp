//===- smt/Evaluator.cpp --------------------------------------------------===//

#include "smt/Evaluator.h"

#include <cassert>

using namespace seqver;
using namespace seqver::smt;

int64_t seqver::smt::evalSum(const LinSum &Sum, const Assignment &Values) {
  int64_t Acc = Sum.Constant;
  for (const auto &[Var, Coeff] : Sum.Terms)
    Acc += Coeff * Values.intValue(Var);
  return Acc;
}

bool seqver::smt::evalFormula(Term Formula, const Assignment &Values) {
  switch (Formula->kind()) {
  case TermKind::BoolConst:
    return Formula->boolValue();
  case TermKind::BoolVar:
    return Values.boolValue(Formula);
  case TermKind::IntVar:
    assert(false && "int term evaluated as formula");
    return false;
  case TermKind::AtomLe:
    return evalSum(Formula->sum(), Values) <= 0;
  case TermKind::AtomEq:
    return evalSum(Formula->sum(), Values) == 0;
  case TermKind::Not:
    return !evalFormula(Formula->child(0), Values);
  case TermKind::And:
    for (Term Child : Formula->children())
      if (!evalFormula(Child, Values))
        return false;
    return true;
  case TermKind::Or:
    for (Term Child : Formula->children())
      if (evalFormula(Child, Values))
        return true;
    return false;
  case TermKind::Iff:
    return evalFormula(Formula->child(0), Values) ==
           evalFormula(Formula->child(1), Values);
  }
  assert(false && "unhandled term kind");
  return false;
}

std::optional<int64_t> seqver::smt::evalSumChecked(const LinSum &Sum,
                                                   const Assignment &Values) {
  int64_t Acc = Sum.Constant;
  for (const auto &[Var, Coeff] : Sum.Terms) {
    int64_t Product;
    if (__builtin_mul_overflow(Coeff, Values.intValue(Var), &Product) ||
        __builtin_add_overflow(Acc, Product, &Acc))
      return std::nullopt;
  }
  return Acc;
}

std::optional<bool> seqver::smt::evalFormulaChecked(Term Formula,
                                                    const Assignment &Values) {
  switch (Formula->kind()) {
  case TermKind::BoolConst:
    return Formula->boolValue();
  case TermKind::BoolVar:
    return Values.boolValue(Formula);
  case TermKind::IntVar:
    assert(false && "int term evaluated as formula");
    return std::nullopt;
  case TermKind::AtomLe:
  case TermKind::AtomEq: {
    std::optional<int64_t> Value = evalSumChecked(Formula->sum(), Values);
    if (!Value)
      return std::nullopt;
    return Formula->kind() == TermKind::AtomLe ? *Value <= 0 : *Value == 0;
  }
  case TermKind::Not: {
    std::optional<bool> Child = evalFormulaChecked(Formula->child(0), Values);
    if (!Child)
      return std::nullopt;
    return !*Child;
  }
  case TermKind::And:
  case TermKind::Or: {
    // The value that settles the junction: false for And, true for Or.
    bool Absorbing = Formula->kind() == TermKind::Or;
    bool Undecided = false;
    for (Term Child : Formula->children()) {
      std::optional<bool> Value = evalFormulaChecked(Child, Values);
      if (!Value)
        Undecided = true;
      else if (*Value == Absorbing)
        return Absorbing;
    }
    if (Undecided)
      return std::nullopt;
    return !Absorbing;
  }
  case TermKind::Iff: {
    std::optional<bool> Left = evalFormulaChecked(Formula->child(0), Values);
    std::optional<bool> Right = evalFormulaChecked(Formula->child(1), Values);
    if (!Left || !Right)
      return std::nullopt;
    return *Left == *Right;
  }
  }
  assert(false && "unhandled term kind");
  return std::nullopt;
}
