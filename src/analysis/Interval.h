//===- analysis/Interval.h - Integer intervals and tri-state evaluation ---===//
///
/// \file
/// The abstract value domain shared by the constant/interval propagation
/// pass and the SMT-free commutativity decider: possibly-unbounded integer
/// intervals, saturating range arithmetic over linear sums, and a tri-state
/// (true / false / unknown) evaluator for formulas under an interval
/// environment. Boolean variables are encoded as sub-intervals of [0, 1].
///
/// Everything here is deliberately value-level and allocation-light; the
/// callers run it per CFG edge and per commutativity obligation.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_ANALYSIS_INTERVAL_H
#define SEQVER_ANALYSIS_INTERVAL_H

#include "smt/Term.h"

#include <cstdint>
#include <optional>

namespace seqver {
namespace analysis {

/// A possibly half-open integer interval. Missing bounds mean -inf / +inf.
/// An Interval value is always non-empty; meets that would produce an empty
/// interval report it via their return value instead.
struct Interval {
  bool HasLo = false;
  bool HasHi = false;
  int64_t Lo = 0;
  int64_t Hi = 0;

  static Interval top() { return {}; }
  static Interval exact(int64_t V) { return {true, true, V, V}; }
  static Interval atLeast(int64_t V) { return {true, false, V, 0}; }
  static Interval atMost(int64_t V) { return {false, true, 0, V}; }

  bool isTop() const { return !HasLo && !HasHi; }
  bool isExact() const { return HasLo && HasHi && Lo == Hi; }
  bool contains(int64_t V) const {
    return (!HasLo || Lo <= V) && (!HasHi || V <= Hi);
  }

  /// Least upper bound (interval hull).
  void hullWith(const Interval &O) {
    if (HasLo && (!O.HasLo || O.Lo < Lo)) {
      HasLo = O.HasLo;
      Lo = O.Lo;
    }
    if (HasHi && (!O.HasHi || O.Hi > Hi)) {
      HasHi = O.HasHi;
      Hi = O.Hi;
    }
  }

  /// Greatest lower bound; returns false iff the meet is empty.
  bool meetWith(const Interval &O) {
    if (O.HasLo && (!HasLo || O.Lo > Lo)) {
      HasLo = true;
      Lo = O.Lo;
    }
    if (O.HasHi && (!HasHi || O.Hi < Hi)) {
      HasHi = true;
      Hi = O.Hi;
    }
    return !(HasLo && HasHi && Lo > Hi);
  }

  bool operator==(const Interval &O) const {
    return HasLo == O.HasLo && HasHi == O.HasHi &&
           (!HasLo || Lo == O.Lo) && (!HasHi || Hi == O.Hi);
  }
  bool operator!=(const Interval &O) const { return !(*this == O); }
};

/// An interval environment: variable -> interval; absent means top.
/// Also the lattice element of the constant/interval propagation pass.
using IntervalFact = smt::TermMap<Interval>;

/// Lookup functor adapting an IntervalFact for the evaluators below.
struct FactEnv {
  const IntervalFact &F;
  const Interval *operator()(smt::Term Var) const {
    auto It = F.find(Var);
    return It == F.end() ? nullptr : &It->second;
  }
};

enum class Tri : uint8_t { False, True, Unknown };

inline Tri triNot(Tri T) {
  switch (T) {
  case Tri::False:
    return Tri::True;
  case Tri::True:
    return Tri::False;
  case Tri::Unknown:
    return Tri::Unknown;
  }
  return Tri::Unknown;
}

/// Saturating range evaluation of a linear sum under an environment.
/// Lookup is `const Interval *(smt::Term Var)`; nullptr means top.
/// Accumulates in 128-bit and drops a bound rather than wrapping.
template <typename LookupFn>
Interval intervalOfSum(const smt::LinSum &Sum, const LookupFn &Lookup) {
  bool HasLo = true, HasHi = true;
  __int128 Lo = Sum.Constant, Hi = Sum.Constant;
  for (const auto &[Var, Coeff] : Sum.Terms) {
    const Interval *I = Lookup(Var);
    // Contribution range of Coeff * Var.
    bool CLo, CHi;
    __int128 L = 0, H = 0;
    if (!I) {
      CLo = CHi = false;
    } else if (Coeff > 0) {
      CLo = I->HasLo;
      CHi = I->HasHi;
      L = static_cast<__int128>(Coeff) * I->Lo;
      H = static_cast<__int128>(Coeff) * I->Hi;
    } else {
      CLo = I->HasHi;
      CHi = I->HasLo;
      L = static_cast<__int128>(Coeff) * I->Hi;
      H = static_cast<__int128>(Coeff) * I->Lo;
    }
    HasLo = HasLo && CLo;
    HasHi = HasHi && CHi;
    if (HasLo)
      Lo += L;
    if (HasHi)
      Hi += H;
    if (!HasLo && !HasHi)
      return Interval::top();
  }
  // Saturate back into int64 bounds; a bound outside the representable
  // range is dropped (sound: the interval only grows).
  constexpr __int128 Min = INT64_MIN, Max = INT64_MAX;
  Interval Out;
  if (HasLo && Lo >= Min && Lo <= Max) {
    Out.HasLo = true;
    Out.Lo = static_cast<int64_t>(Lo);
  }
  if (HasHi && Hi >= Min && Hi <= Max) {
    Out.HasHi = true;
    Out.Hi = static_cast<int64_t>(Hi);
  }
  return Out;
}

/// Tri-state truth of Formula with pluggable atom evaluation. Boolean
/// variables evaluate through Lookup with the [0,1] encoding; the range of
/// each linear atom's sum comes from RangeOf, so relational domains (the
/// octagon) can answer atoms their unary projection cannot. Conservative:
/// Unknown whenever the ranges do not pin the answer down.
template <typename LookupFn, typename SumRangeFn>
Tri evalTriOver(const smt::TermManager &TM, smt::Term Formula,
                const LookupFn &Lookup, const SumRangeFn &RangeOf) {
  using smt::TermKind;
  switch (Formula->kind()) {
  case TermKind::BoolConst:
    return Formula->boolValue() ? Tri::True : Tri::False;
  case TermKind::IntVar:
    return Tri::Unknown; // ill-sorted as a formula; never built by mk*
  case TermKind::BoolVar: {
    const Interval *I = Lookup(Formula);
    if (I && I->isExact())
      return I->Lo != 0 ? Tri::True : Tri::False;
    return Tri::Unknown;
  }
  case TermKind::AtomLe: {
    Interval R = RangeOf(Formula->sum());
    if (R.HasHi && R.Hi <= 0)
      return Tri::True;
    if (R.HasLo && R.Lo > 0)
      return Tri::False;
    return Tri::Unknown;
  }
  case TermKind::AtomEq: {
    Interval R = RangeOf(Formula->sum());
    if (R.isExact() && R.Lo == 0)
      return Tri::True;
    if (!R.contains(0))
      return Tri::False;
    return Tri::Unknown;
  }
  case TermKind::Not:
    return triNot(evalTriOver(TM, Formula->child(0), Lookup, RangeOf));
  case TermKind::And: {
    Tri Acc = Tri::True;
    for (smt::Term C : Formula->children()) {
      Tri T = evalTriOver(TM, C, Lookup, RangeOf);
      if (T == Tri::False)
        return Tri::False;
      if (T == Tri::Unknown)
        Acc = Tri::Unknown;
    }
    return Acc;
  }
  case TermKind::Or: {
    Tri Acc = Tri::False;
    for (smt::Term C : Formula->children()) {
      Tri T = evalTriOver(TM, C, Lookup, RangeOf);
      if (T == Tri::True)
        return Tri::True;
      if (T == Tri::Unknown)
        Acc = Tri::Unknown;
    }
    return Acc;
  }
  case TermKind::Iff: {
    Tri A = evalTriOver(TM, Formula->child(0), Lookup, RangeOf);
    Tri B = evalTriOver(TM, Formula->child(1), Lookup, RangeOf);
    if (A == Tri::Unknown || B == Tri::Unknown)
      return Tri::Unknown;
    return A == B ? Tri::True : Tri::False;
  }
  }
  return Tri::Unknown;
}

/// Tri-state truth under a plain interval environment (atoms ranged by
/// intervalOfSum over Lookup).
template <typename LookupFn>
Tri evalTri(const smt::TermManager &TM, smt::Term Formula,
            const LookupFn &Lookup) {
  return evalTriOver(TM, Formula, Lookup, [&](const smt::LinSum &Sum) {
    return intervalOfSum(Sum, Lookup);
  });
}

} // namespace analysis
} // namespace seqver

#endif // SEQVER_ANALYSIS_INTERVAL_H
