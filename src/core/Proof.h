//===- core/Proof.h - Floyd/Hoare proof automaton -------------------------===//
///
/// \file
/// The candidate proof of the trace abstraction refinement scheme (Sec. 7.2,
/// after Heizmann et al.): a pool of assertions (predicates) and a
/// deterministic automaton over predicate *sets*. In state S (a set of
/// predicates known to hold), reading action a leads to the set of all pool
/// predicates psi with valid Hoare triple {conj(S)} a {psi}. A trace is
/// covered by the proof iff its run ends in a set containing the predicate
/// "false" (the trace is infeasible).
///
/// The paper's proof-size metric is the number of assertions in the pool.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_CORE_PROOF_H
#define SEQVER_CORE_PROOF_H

#include "program/Program.h"
#include "program/Semantics.h"
#include "smt/Solver.h"
#include "support/InternTable.h"

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace seqver {
namespace core {

/// Canonical sorted vector of predicate ids.
using PredSet = std::vector<uint32_t>;
/// Dense id of an interned PredSet (ProofAutomaton::set()).
using SetId = uint32_t;

/// Grows monotonically across refinement rounds; transitions are computed
/// lazily with caching. Automaton states are interned predicate sets: every
/// PredSet the automaton produces gets a dense SetId that stays valid for
/// the automaton's lifetime (across rounds and mask changes), so callers
/// key their own memos on it.
class ProofAutomaton {
public:
  ProofAutomaton(smt::TermManager &TM, smt::QueryEngine &QE,
                 prog::FreshVarSource &Fresh,
                 const prog::ConcurrentProgram &P);

  /// Id of the distinguished predicate "false".
  static constexpr uint32_t FalseId = 0;

  /// Adds Predicate to the pool (deduplicated); returns its id. Adding
  /// "true" is a no-op returning an id that never helps coverage.
  uint32_t addPredicate(smt::Term Predicate);

  /// Seeds the pool with externally inferred candidate invariants (e.g. the
  /// octagon analysis's per-location atoms) before the first round; returns
  /// how many were new. Soundness does not depend on the seeds being
  /// correct: a predicate only ever enters an automaton state through
  /// initialSet()/step(), both of which gate on SMT-checked implications
  /// (a seed that is not inductive where needed simply never helps
  /// coverage). Seeding only changes *which* proof is found and how fast.
  size_t addSeedPredicates(const std::vector<smt::Term> &Seeds);

  size_t numPredicates() const { return Predicates.size(); }
  smt::Term predicate(uint32_t Id) const { return Predicates[Id]; }

  /// Interns S (sorted, duplicate-free) and returns its id.
  SetId internSet(const PredSet &S) { return Sets.intern(S); }
  /// The predicate set of an id.
  const PredSet &set(SetId S) const { return Sets[S]; }
  /// The set interner's probe counters (telemetry).
  uint64_t setInternHits() const { return Sets.hits(); }
  uint64_t setInternMisses() const { return Sets.misses(); }

  /// Conjunction term of the predicates in S (computed once per id).
  smt::Term conjunction(SetId S);

  /// Predicates implied by the program's initial constraint.
  SetId initialSet();

  /// Proof transition: largest T with {conj(S)} a {conj(T)} valid.
  /// Memoized per (S, L) in a flat table until the next invalidateCaches().
  /// Two exact rules settle most triples before the solver is asked:
  ///  - frame: wp(L, psi), or one of its top-level disjuncts, is itself a
  ///    top-level conjunct of conj(S), so conj(S) => wp holds syntactically;
  ///  - counter-model: a model the session solver returned earlier in the
  ///    same step satisfies conj(S) and falsifies wp(L, psi), so the triple
  ///    fails. Evaluation is overflow-checked; an overflowing model decides
  ///    nothing and the solver is asked as before.
  SetId step(SetId S, automata::Letter L);

  bool isFalse(SetId S) const {
    const PredSet &Preds = Sets[S];
    return !Preds.empty() && Preds.front() == FalseId;
  }

  /// Drops the step memo; called when the pool grows between rounds
  /// (cached steps would otherwise miss new predicates).
  void invalidateCaches();

  /// Restricts the automaton to a subset of the pool: disabled predicates
  /// are never produced by initialSet()/step(). Used by proof minimization.
  /// An empty mask (the default) enables everything. Invalidates caches.
  void setEnabledMask(std::vector<bool> Mask);
  /// Number of currently enabled predicates.
  size_t numEnabled() const;
  /// True if predicate Id is enabled under the current mask.
  bool predicateEnabled(uint32_t Id) const { return isEnabled(Id); }

  /// Every triple posed by initialSet()/step() (statistic: hoare_queries).
  uint64_t numHoareQueries() const { return HoareQueries; }
  /// Triples step() settled by the frame rule (statistic: hoare_frame).
  uint64_t numHoareFrame() const { return HoareFrame; }
  /// Triples step() refuted by a counter-model of the same step (statistic:
  /// hoare_model_refuted).
  uint64_t numHoareModelRefuted() const { return HoareModelRefuted; }

  /// True iff Model falsifies Wp under checked evaluation; false when
  /// Wp's value depends on an overflowing sum (no refutation).
  static bool refutes(const smt::Assignment &Model, smt::Term Wp);

  /// Enables incremental SMT for the Hoare gate: one smt::Session per
  /// transition letter (plus one for initialSet), with each negated
  /// postcondition prepared once as an assumable premise and each
  /// precondition one more assumption. Verdicts match the fresh-instance
  /// path exactly; sessions survive invalidateCaches(), which is where the
  /// cross-round savings come from. Off by default.
  void setIncremental(bool On) { Incremental = On; }

private:
  /// One session per letter (or the initial-constraint gate): the premise
  /// handles of the negated postconditions, keyed by predicate id.
  struct HoareSession {
    std::unique_ptr<smt::Session> Sess;
    std::map<uint32_t, smt::Session::Handle> NegPost;
  };

  /// wp(a, psi), cached per (letter, predicate).
  smt::Term wpCached(automata::Letter L, uint32_t PredId);
  /// {Pre} -> Post via HS's session, replicating QueryEngine::implies's
  /// fast paths so incremental and fresh verdicts agree literally.
  bool hoareHolds(HoareSession &HS, smt::Term Pre, uint32_t PostId,
                  smt::Term Post);

  smt::TermManager &TM;
  smt::QueryEngine &QE;
  prog::FreshVarSource &Fresh;
  const prog::ConcurrentProgram &P;

  bool isEnabled(uint32_t Id) const {
    return EnabledMask.empty() || EnabledMask[Id];
  }

  std::vector<smt::Term> Predicates;
  std::vector<bool> EnabledMask; // empty = all enabled
  std::map<smt::Term, uint32_t> PredicateIds;
  /// Interned predicate sets and, by SetId, their conjunctions (null until
  /// first asked for). Both live as long as the automaton.
  InternTable<PredSet> Sets;
  std::vector<smt::Term> Conj;
  /// Step memo: slot S * numLetters + L holds step(S, L) + 1, 0 = unknown.
  /// Allocated on the first step() and grown with the set interner.
  std::vector<SetId> StepMemo;
  std::map<std::pair<automata::Letter, uint32_t>, smt::Term> WpCache;
  std::map<automata::Letter, HoareSession> LetterSessions;
  HoareSession InitSession;
  /// Counter-models of the step() in progress: each satisfies its conj(S).
  std::vector<smt::Assignment> StepModels;
  uint64_t HoareQueries = 0;
  uint64_t HoareFrame = 0;
  uint64_t HoareModelRefuted = 0;
  bool Incremental = false;
};

} // namespace core
} // namespace seqver

#endif // SEQVER_CORE_PROOF_H
