//===- reduction/Commutativity.h - Statement commutativity ----------------===//
///
/// \file
/// The commutativity relation over program statements (Sec. 4, Sec. 7).
/// Mirrors GemCutter's layering (Sec. 8), extended with a solver-free
/// middle tier:
///
///   Syntactic -> Static -> Semantic
///
/// 1. Syntactic: neither action writes a variable accessed by the other.
/// 2. Static: the same proof obligations as the semantic tier, discharged
///    by constant folding and interval reasoning (analysis::
///    StaticCommutativity). A "commute" here provably implies the semantic
///    answer; anything undecided falls through.
/// 3. Semantic: SMT equivalence of the two symbolic compositions, including
///    *conditional* commutativity under a context assertion phi (Def. 7.3).
///
/// Whenever a tier cannot decide a query, the next tier runs; if the solver
/// itself cannot decide, the actions are conservatively declared
/// non-commutative (always sound).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_REDUCTION_COMMUTATIVITY_H
#define SEQVER_REDUCTION_COMMUTATIVITY_H

#include "analysis/StaticCommutativity.h"
#include "program/Program.h"
#include "program/Semantics.h"
#include "reduction/CommutOracle.h"
#include "runtime/Cancellation.h"
#include "smt/Solver.h"
#include "support/InternTable.h"
#include "support/Statistics.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace seqver {
namespace red {

/// Decides (conditional) commutativity of program actions, with caching.
class CommutativityChecker {
public:
  enum class Mode : uint8_t {
    Syntactic, ///< footprint disjointness only
    Static,    ///< syntactic + solver-free obligation check, no SMT
    Semantic,  ///< all tiers; SMT settles what the static tier cannot
    Full,      ///< test-only: all pairs from different threads commute
  };

  CommutativityChecker(const prog::ConcurrentProgram &P,
                       smt::QueryEngine &QE, Mode M)
      : P(P), QE(QE), M(M) {
    if (M == Mode::Static || M == Mode::Semantic)
      Static = std::make_unique<analysis::StaticCommutativity>(P);
  }

  /// Adds the per-tier counters (commut_queries, commut_syntactic,
  /// commut_static, commut_semantic, commut_cache_hits, ...) to Out under
  /// their names, skipping zeros. The counters are plain members bumped on
  /// every query; owners export them once, when they report.
  void exportStatistics(Statistics &Out) const;

  /// Adds a cancellation token to poll before every semantic (SMT) query.
  /// When any watched token requests a stop, undecided queries short-
  /// circuit to "non-commutative" — conservative and sound — without
  /// being cached, so a later non-cancelled run re-decides them.
  void watchCancellation(const runtime::CancellationToken *Token) {
    if (Token)
      Watched.push_back(Token);
  }

  /// Installs the shared oracle (CommutOracle.h) as a second-level cache
  /// between the private per-checker cache and the static tier: misses
  /// consult it under the manager-independent canonical key, and proven
  /// answers are published back. Publication is restricted to answers
  /// that are pure functions of the key — interval-tier proofs, semantic
  /// results, and the context-free screen's verdicts. Location-dependent
  /// proofs (octagon/Karr sub-tiers, which assume the letters' source-
  /// location invariants) and undecided answers (Mode::Static
  /// fall-throughs, cancelled queries) are never published: the former are
  /// invisible to the location-blind key, the latter are conservative
  /// placeholders, not facts. Null detaches. Counters: commut_shared_hits
  /// / commut_shared_misses / commut_shared_subsumed /
  /// commut_shared_stores.
  void setSharedOracle(CommutOracle *Oracle) { Shared = Oracle; }

  /// Enables incremental SMT: one smt::Session per letter pair, created on
  /// the pair's first semantic query. The obligations are encoded once as
  /// assumable premises; each context phi is just another assumption, so
  /// every re-query of the pair under a new context reuses the encoding,
  /// learned clauses, and warm tableau. Off by default (the fresh-instance
  /// path through QueryEngine::isUnsat); verdicts are identical either way.
  void setIncremental(bool On) { Incremental = On; }

  /// Disables the static tier (for tier-comparison runs; Semantic mode then
  /// behaves exactly like the historical two-tier checker).
  void disableStaticTier() { Static.reset(); }
  analysis::StaticCommutativity *staticTier() { return Static.get(); }

  /// Installs invariant sources on the static tier, enabling its
  /// conditional sub-tiers (octagon, Karr): obligations the interval pass
  /// leaves open are retried under the invariants of both letters' source
  /// locations, conjoined cumulatively in list order. See
  /// StaticCommutativity::decide for the soundness argument. No-op when
  /// the static tier is disabled; an empty list clears.
  void
  setInvariantContext(std::vector<const analysis::InvariantSource *> Sources) {
    if (Static)
      Static->setInvariantContext(std::move(Sources));
  }

  /// Unconditional commutativity a ~ b.
  bool commutes(automata::Letter A, automata::Letter B) {
    return commutesUnder(nullptr, A, B);
  }

  /// Conditional commutativity a ~_phi b (Def. 7.3); Phi == nullptr means
  /// phi = true. Monotone: if a ~_phi b then a ~_psi b for stronger psi
  /// (guaranteed by the semantics, not just the cache).
  bool commutesUnder(smt::Term Phi, automata::Letter A, automata::Letter B) {
    return decide(canonicalContext(Phi), A, B) == Answer::Commutes;
  }

  /// Row memo for sleep-set successors. A context id names one context
  /// term (null and literal `true` share an id); ids are dense and stable
  /// for the checker's lifetime.
  uint32_t contextId(smt::Term Phi);
  /// Clears from the letter set Words (numLetters() bits, 64 per word) every
  /// letter B that does not commute with A under context Ctx, leaving
  /// Words = Words /\ { B | A ~_phi B }. Per (Ctx, A) the checker keeps two
  /// letter bitsets, decided and commutes; only letters of Words not yet
  /// decided reach commutesUnder, in increasing letter order. Answers a
  /// cancellation cut short are not recorded, so a later call re-decides
  /// them. The rows live as long as the checker: an answer is a function of
  /// the (context term, pair) key, whatever round asks.
  void keepCommuting(uint32_t Ctx, automata::Letter A, uint64_t *Words);

  Mode mode() const { return M; }
  uint64_t numSemanticChecks() const { return Counts[SemanticQueries]; }
  /// Queries the static tier proved commuting (and the solver never saw).
  uint64_t numStaticProofs() const {
    return Static ? Static->numProofs() : 0;
  }
  /// Distinct (pair, context) keys in the private cache (regression seam
  /// for the nullptr-vs-mkTrue key canonicalization).
  size_t numCachedQueries() const { return Cache.size(); }

private:
  /// A query's outcome; Cancelled reads as "dependent" but is never cached.
  enum class Answer : uint8_t { Dependent, Commutes, Cancelled };
  /// commutesUnder with Phi already canonicalized.
  Answer decide(smt::Term Phi, automata::Letter A, automata::Letter B);
  /// Literal `true` is the unconditional context: null.
  static smt::Term canonicalContext(smt::Term Phi) {
    if (Phi && Phi->kind() == smt::TermKind::BoolConst && Phi->boolValue())
      return nullptr;
    return Phi;
  }
  bool semanticCheck(smt::Term Phi, automata::Letter MinL,
                     automata::Letter MaxL);
  /// Runs the unsat checks of Obl strengthened by Context; true iff every
  /// obligation is discharged (false may be a solver give-up). In
  /// incremental mode this lazily opens the pair's session and routes the
  /// checks through it (hence the non-const obligations).
  struct PairObligations;
  bool dischargeObligations(smt::Term Context, PairObligations &Obl);
  /// Canonical key of the (already Phi-canonicalized, letter-ordered)
  /// query; the per-letter action texts and per-term Phi texts are
  /// memoized. The context-free key (Phi null) is memoized per pair: it
  /// is asked again on every shared-oracle miss of the pair under any
  /// context. A contextual key is asked once per private-cache miss, and
  /// the private cache then answers its repeats.
  persist::Fingerprint sharedKey(smt::Term Phi, automata::Letter MinL,
                                 automata::Letter MaxL);
  /// Publishes a proven answer to the shared oracle (no-op when detached).
  void publishShared(const persist::Fingerprint &Key, bool Commutes);
  enum Counter : uint8_t {
    Queries,
    Syntactic,
    CacheHits,
    SharedHits,
    SharedSubsumed,
    SharedMisses,
    SharedStores,
    StaticProofs,
    OctagonProofs,
    KarrProofs,
    CancelledQueries,
    SemanticQueries,
    SymMemoHits,
    NumCounters
  };
  void count(Counter C) { ++Counts[C]; }
  bool stopRequested() const {
    for (const runtime::CancellationToken *T : Watched)
      if (T->stopRequested())
        return true;
    return false;
  }

  const prog::ConcurrentProgram &P;
  smt::QueryEngine &QE;
  Mode M;
  std::unique_ptr<analysis::StaticCommutativity> Static;
  uint64_t Counts[NumCounters] = {};
  CommutOracle *Shared = nullptr;
  std::vector<const runtime::CancellationToken *> Watched;
  /// Cache key: (min letter, max letter, condition or nullptr). A literal
  /// `true` condition is canonicalized to nullptr before keying, so the
  /// unconditional entry is shared with trivial-context callers.
  std::map<std::tuple<automata::Letter, automata::Letter, smt::Term>, bool>
      Cache;
  /// Memoized canonical action texts (by letter) and context texts (by
  /// interned term) for the shared-oracle key.
  std::map<automata::Letter, std::string> ActionTexts;
  std::map<smt::Term, std::string> PhiTexts;
  /// Context-free shared-oracle keys by (min letter << 32 | max letter).
  std::unordered_map<uint64_t, persist::Fingerprint> CtxFreeKeys;
  /// Per-pair symbolic compositions: the guard-equivalence and per-written-
  /// variable value-equivalence obligations of (min, max), built once and
  /// reused across every Phi context — only the unsat checks re-run.
  struct PairObligations {
    /// The context-free screen's memoized verdict: whether the obligations
    /// are unsatisfiable with *no* context at all. Commutes is the
    /// strongest possible answer — unsatisfiability is monotone under
    /// added conjuncts, so the pair commutes under *every* Phi — and is
    /// what the shared oracle stores under the pair's context-free key.
    /// Dependent (which may be a solver give-up) only says the trivial
    /// context could not discharge the obligations; stronger contexts are
    /// still checked individually.
    enum class CtxFree : uint8_t { Unknown, Commutes, Dependent };
    smt::Term CommonGuard = nullptr;  ///< AB.Guard (== BA.Guard when used)
    smt::Term GuardsDiffer = nullptr; ///< !(G_ab <=> G_ba)
    std::vector<smt::Term> ValuesDiffer; ///< one per written variable
    CtxFree CF = CtxFree::Unknown;
    bool CFPublished = false; ///< context-free key already sent to oracle
    /// Incremental mode only: the pair's solver session and the premise
    /// handles of the obligations above (created on first semantic query).
    std::unique_ptr<smt::Session> Sess;
    smt::Session::Handle HGuardsDiffer = 0;
    smt::Session::Handle HCommonGuard = 0;
    std::vector<smt::Session::Handle> HValuesDiffer;
  };
  std::map<std::pair<automata::Letter, automata::Letter>, PairObligations>
      PairMemo;
  bool Incremental = false;

  /// Row memo (keepCommuting). Contexts interns context terms to ids, with
  /// ContextTerms the inverse; RowOf[Ctx * numLetters + A] is the row's
  /// index + 1 (0 = no row yet); row R is 2 * rowWords() words of RowBits,
  /// the decided bitset followed by the commutes bitset. All empty until
  /// the first contextId().
  size_t rowWords() const { return (P.numLetters() + 63) / 64; }
  InternTable<uintptr_t> Contexts;
  std::vector<smt::Term> ContextTerms;
  std::vector<uint32_t> RowOf;
  std::vector<uint64_t> RowBits;
};

} // namespace red
} // namespace seqver

#endif // SEQVER_REDUCTION_COMMUTATIVITY_H
