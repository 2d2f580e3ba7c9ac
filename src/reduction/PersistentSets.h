//===- reduction/PersistentSets.h - Algorithm 1 (Sec. 7.1) ----------------===//
///
/// \file
/// Computes compatible weakly persistent membranes for product states of a
/// concurrent program (Algorithm 1): a preprocessing step computes the
/// location-level conflict relation; per state, a conflict graph over the
/// active threads (with extra edges enforcing compatibility with the
/// preference order, Sec. 6.2) is condensed into SCCs and a topologically
/// maximal SCC is selected. The enabled actions of the selected threads form
/// a weakly persistent set.
///
/// Membrane condition (Sec. 6.1, footnote 4): threads containing assert
/// statements are forced into the selection whenever they are active, which
/// makes the resulting set a membrane for error-acceptance as well.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_REDUCTION_PERSISTENTSETS_H
#define SEQVER_REDUCTION_PERSISTENTSETS_H

#include "program/Program.h"
#include "reduction/Commutativity.h"
#include "reduction/PreferenceOrder.h"
#include "support/Bitset.h"
#include "support/InternTable.h"

#include <vector>

namespace seqver {
namespace red {

/// Per-program computer with caching by (state id, order context).
class PersistentSetComputer {
public:
  /// Order may be null: then no compatibility edges are added (pure
  /// conflict-closure), which is what the persistent-set-only verifier
  /// variant of Table 2 uses. StaticIndep, when given, short-circuits the
  /// per-pair commutativity queries of the conflict precomputation with the
  /// statically proven independence relation (Algorithm 1's thread conflict
  /// relation consuming the static conflict graph directly).
  PersistentSetComputer(const prog::ConcurrentProgram &P,
                        CommutativityChecker &Commut,
                        const PreferenceOrder *Order,
                        const analysis::ConflictRelation *StaticIndep =
                            nullptr);

  /// The weakly persistent membrane for state S under order context Ctx,
  /// as an interned letter set (test it through membranes()). QId is the
  /// caller's dense id of S — the same id must always name the same state —
  /// and keys the memo together with Ctx (InitialContext for non-positional
  /// orders, which ignore it).
  SleepSetId compute(uint32_t QId, const prog::ProductState &S,
                     PreferenceOrder::Context Ctx);
  /// The interned membranes; ids are stable for the computer's lifetime.
  const SleepSetInterner &membranes() const { return Membranes; }

  /// Location-level conflict relation  l_i ~~> l_j  (Sec. 7.1): some action
  /// enabled at l_i does not commute with some action reachable from l_j in
  /// thread j. Exposed for tests.
  bool locationsConflict(int ThreadI, prog::Location LocI, int ThreadJ,
                         prog::Location LocJ) const;

private:
  void precomputeConflicts();

  const prog::ConcurrentProgram &P;
  CommutativityChecker &Commut;
  const PreferenceOrder *Order;
  const analysis::ConflictRelation *StaticIndep;

  /// Conflict[i][li][j] = bitset over locations of thread j in conflict
  /// with (i, li). Indexed sparsely via vectors.
  std::vector<std::vector<std::vector<Bitset>>> Conflicts;
  /// Threads containing assert statements (error locations).
  std::vector<bool> HasAssert;

  /// Memo: (state id, context) interned to a dense key id; MembraneOf maps
  /// a key id to its membrane. Each distinct membrane is stored once.
  struct MemoKey {
    uint32_t Q = 0;
    PreferenceOrder::Context Ctx = PreferenceOrder::InitialContext;
    bool operator==(const MemoKey &) const = default;
    uint64_t hash() const { return hashCombine(hashMix(Q), Ctx); }
  };
  InternTable<MemoKey> Memo;
  std::vector<SleepSetId> MembraneOf;
  SleepSetInterner Membranes;
};

} // namespace red
} // namespace seqver

#endif // SEQVER_REDUCTION_PERSISTENTSETS_H
