//===- analysis/CongruenceProp.h - Thread-modular congruence propagation --===//
///
/// \file
/// Granger's congruence domain (`x ≡ r mod m`) run thread-modularly on the
/// Dataflow framework, with the same interference abstraction as the other
/// value domains: per thread, only *trackable* variables (globals written
/// by no other thread) enter the universe, so per-location facts are
/// invariants of every product state in which the thread occupies that
/// location.
///
/// The pass is the fourth registered InvariantSource (interval → octagon →
/// karr → congruence). It contributes what the affine equalities cannot:
/// divisibility facts on strided counters (`total := total + 2` in a loop
/// yields `total ≡ 0 mod 2` at the head regardless of the trip count),
/// which refute off-parity equalities — killing edges and settling
/// conditional-mover and commutativity obligations the exact-value domains
/// leave open. No widening is needed: every proper join strictly descends
/// a divisor chain of the modulus, so ascending chains are logarithmic.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_ANALYSIS_CONGRUENCEPROP_H
#define SEQVER_ANALYSIS_CONGRUENCEPROP_H

#include "analysis/InvariantSource.h"

#include <optional>
#include <vector>

namespace seqver {
namespace analysis {

/// One congruence class: the values { R + k*M | k ∈ Z } when M > 0, the
/// single constant R when M == 0, and all of Z when M == 1 (top).
/// Normalized: M >= 0, and 0 <= R < M whenever M > 1.
struct Congruence {
  int64_t R = 0;
  int64_t M = 1;

  static Congruence top() { return {0, 1}; }
  static Congruence exact(int64_t V) { return {V, 0}; }
  /// The normalized class of (R mod M); M <= 0 is treated as constant R.
  static Congruence of(int64_t R, int64_t M);

  bool isTop() const { return M == 1; }
  bool isConst() const { return M == 0; }
  bool contains(int64_t V) const;

  bool operator==(const Congruence &O) const { return R == O.R && M == O.M; }
  bool operator!=(const Congruence &O) const { return !(*this == O); }
};

/// Least upper bound: the coarsest class containing both (modulus
/// gcd(M_a, M_b, |R_a - R_b|)).
Congruence congJoin(const Congruence &A, const Congruence &B);
/// Abstract sum and scaling (sound over-approximations; saturate to top on
/// int64 overflow or a modulus beyond the cap).
Congruence congAdd(const Congruence &A, const Congruence &B);
Congruence congScale(const Congruence &A, int64_t Factor);

/// Moduli above this are not tracked (saturate to top): keeps every
/// residue/modulus operation safely inside int64.
constexpr int64_t CongruenceModulusCap = int64_t(1) << 31;

/// Variable -> congruence; absent means top. The lattice element of the
/// congruence propagation pass.
using CongruenceFact = smt::TermMap<Congruence>;

/// Congruence class of a linear sum under a fact (booleans through the
/// [0,1] encoding; untracked variables are top).
Congruence congOfSum(const smt::LinSum &Sum, const CongruenceFact &F);

/// Tri-state truth of Formula under a congruence fact. The domain's
/// distinctive answer: an equality atom whose sum falls in a nonzero
/// residue class is refuted even though no variable is pinned.
Tri congEval(const smt::TermManager &TM, const CongruenceFact &F,
             smt::Term Formula);

class CongruenceAnalysis : public InvariantSource {
public:
  explicit CongruenceAnalysis(const prog::ConcurrentProgram &P);

  const char *name() const override { return "congruence"; }

  /// Fixpoint fact when ThreadId is at Loc; nullptr when unreachable.
  const CongruenceFact *factAt(int ThreadId, prog::Location Loc) const;

  bool reachable(int ThreadId, prog::Location Loc) const override;
  Tri evalAt(int ThreadId, prog::Location Loc,
             smt::Term Formula) const override;
  const std::vector<DeadEdge> &deadEdges() const override { return Dead; }

  /// Constant pins as equality atoms / boolean literals. Proper congruences
  /// (M > 1) are not emitted: the term language has only linear atoms, and
  /// a divisibility fact is not one — it acts through evalAt and deadEdges
  /// instead.
  std::vector<smt::Term> invariantAtoms(int ThreadId,
                                        prog::Location Loc) const override;

  /// Number of locations carrying a proper congruence (1 < M): facts
  /// beyond every exact-value domain; used by the --analyze report.
  size_t numCongruentLocations() const;

private:
  std::vector<std::vector<smt::Term>> Trackable;
  /// Facts[thread][loc]; nullopt = unreachable.
  std::vector<std::vector<std::optional<CongruenceFact>>> Facts;
  std::vector<DeadEdge> Dead;
};

} // namespace analysis
} // namespace seqver

#endif // SEQVER_ANALYSIS_CONGRUENCEPROP_H
