//===- reduction/Commutativity.cpp - Statement commutativity --------------===//

#include "reduction/Commutativity.h"

#include <algorithm>

using namespace seqver;
using namespace seqver::red;
using seqver::automata::Letter;
using seqver::prog::Action;
using seqver::prog::SymbolicState;
using seqver::smt::Term;
using seqver::smt::TermManager;

CommutativityChecker::Answer
CommutativityChecker::decide(Term Phi, Letter A, Letter B) {
  const Action &ActA = P.action(A);
  const Action &ActB = P.action(B);
  // Statements of the same thread never commute (Sec. 4).
  if (ActA.ThreadId == ActB.ThreadId)
    return Answer::Dependent;
  if (M == Mode::Full)
    return Answer::Commutes;
  count(Queries);

  // Syntactic sufficient condition is independent of Phi.
  if (!ActA.footprintConflictsWith(ActB)) {
    count(Syntactic);
    return Answer::Commutes;
  }
  if (M == Mode::Syntactic)
    return Answer::Dependent;

  Letter MinL = std::min(A, B), MaxL = std::max(A, B);
  auto Key = std::make_tuple(MinL, MaxL, Phi);
  auto It = Cache.find(Key);
  if (It != Cache.end()) {
    count(CacheHits);
    return It->second ? Answer::Commutes : Answer::Dependent;
  }

  // Second-level shared oracle (CommutOracle.h): a manager-independent
  // lookup over the canonical query text, fed by every checker sharing the
  // table — portfolio workers, earlier rounds, prior runs via disk. A hit
  // is an already-proven answer; copy it into the private cache so repeat
  // queries stay pointer-keyed.
  persist::Fingerprint SKey;
  if (Shared) {
    SKey = sharedKey(Phi, MinL, MaxL);
    switch (Shared->lookup(SKey)) {
    case OracleAnswer::Commutes:
      count(SharedHits);
      Cache.emplace(Key, true);
      return Answer::Commutes;
    case OracleAnswer::Dependent:
      count(SharedHits);
      Cache.emplace(Key, false);
      return Answer::Dependent;
    case OracleAnswer::Unknown:
      // Subsumption fallback: a pair proven to commute with *no* context
      // commutes under every Phi (unsatisfiable obligations stay
      // unsatisfiable when conjuncts are added), so the pair's
      // context-free entry answers this query too. Only the positive
      // transfers — "dependent under true" says nothing about a stronger
      // context.
      if (Phi && Shared->lookup(sharedKey(nullptr, MinL, MaxL)) ==
                     OracleAnswer::Commutes) {
        count(SharedHits);
        count(SharedSubsumed);
        Cache.emplace(Key, true);
        return Answer::Commutes;
      }
      count(SharedMisses);
      break;
    }
  }

  // The private context-free screen (semanticCheck's per-pair memo) may
  // already have settled this pair for every context — cheaper than
  // re-running even the static tier.
  {
    auto MemoIt = PairMemo.find({MinL, MaxL});
    if (MemoIt != PairMemo.end() &&
        MemoIt->second.CF == PairObligations::CtxFree::Commutes) {
      count(CacheHits);
      Cache.emplace(Key, true);
      return Answer::Commutes;
    }
  }

  // Solver-free middle tier: proves the same obligations the semantic tier
  // would hand to SMT (interval sub-tier), or proves them strengthened by
  // octagon / Karr location invariants (conditional sub-tiers) — counted
  // separately because the latter are a genuine extension, not just an SMT
  // filter.
  if (Static) {
    switch (Static->decide(Phi, A, B)) {
    case analysis::StaticTierVerdict::Interval:
      count(StaticProofs);
      Cache.emplace(Key, true);
      publishShared(SKey, true);
      return Answer::Commutes;
    case analysis::StaticTierVerdict::Octagon:
      // Octagon and Karr proofs conjoin *location* invariants of the two
      // letters' source locations — facts about where the letters sit in
      // the CFG, which the location-blind canonical key cannot see. Two
      // pairs with identical action text at different locations may get
      // different invariant-conditional answers, so these proofs stay in
      // the private (letter-keyed) cache and are never published.
      count(OctagonProofs);
      Cache.emplace(Key, true);
      return Answer::Commutes;
    case analysis::StaticTierVerdict::Karr:
      count(KarrProofs);
      Cache.emplace(Key, true);
      return Answer::Commutes;
    case analysis::StaticTierVerdict::Unknown:
      break;
    }
  }
  if (M == Mode::Static) {
    // No solver available: undecided pairs are conservatively dependent.
    // Private-cache only — "undecided here" is not a fact about the query,
    // so it must not reach checkers that do have a solver.
    Cache.emplace(Key, false);
    return Answer::Dependent;
  }

  // Cancellation/deadline poll before handing the query to the solver: a
  // cancelled run answers "dependent" (sound — it only weakens the
  // reduction) and skips the private cache *and* the shared oracle, so a
  // live run re-decides the pair instead of inheriting a panic answer.
  if (stopRequested()) {
    count(CancelledQueries);
    return Answer::Cancelled;
  }

  count(SemanticQueries);
  bool Result = semanticCheck(Phi, MinL, MaxL);
  // A negative computed while a cancellation raced in may reflect an
  // interrupted solver, not the query: drop it exactly like the pre-check
  // above — no private cache, no publication — so a live run re-decides.
  if (!Result && stopRequested()) {
    count(CancelledQueries);
    return Answer::Cancelled;
  }
  Cache.emplace(Key, Result);
  // A negative may be a solver give-up rather than a disproof — still
  // sound to share (consumers only weaken the reduction on "dependent").
  publishShared(SKey, Result);
  // The context-free screen inside semanticCheck settles the pair for
  // every context at once; publish that stronger fact under the pair's
  // context-free key, where any worker with any Phi can find it.
  if (Shared && Phi) {
    PairObligations &Obl = PairMemo[{MinL, MaxL}];
    if (Obl.CF != PairObligations::CtxFree::Unknown && !Obl.CFPublished) {
      Obl.CFPublished = true;
      publishShared(sharedKey(nullptr, MinL, MaxL),
                    Obl.CF == PairObligations::CtxFree::Commutes);
    }
  }
  return Result ? Answer::Commutes : Answer::Dependent;
}

uint32_t CommutativityChecker::contextId(Term Phi) {
  Phi = canonicalContext(Phi);
  bool Inserted = false;
  uint32_t Id = Contexts.intern(reinterpret_cast<uintptr_t>(Phi), &Inserted);
  if (Inserted) {
    ContextTerms.push_back(Phi);
    RowOf.resize(ContextTerms.size() * P.numLetters(), 0);
  }
  return Id;
}

void CommutativityChecker::keepCommuting(uint32_t Ctx, Letter A,
                                         uint64_t *Words) {
  const size_t W = rowWords();
  uint32_t &Row = RowOf[static_cast<size_t>(Ctx) * P.numLetters() + A];
  if (Row == 0) {
    Row = static_cast<uint32_t>(RowBits.size() / (2 * W)) + 1;
    RowBits.resize(RowBits.size() + 2 * W, 0);
  }
  uint64_t *Decided = RowBits.data() + (Row - 1) * 2 * W;
  uint64_t *Commuting = Decided + W;
  for (size_t I = 0; I < W; ++I) {
    uint64_t Open = Words[I] & ~Decided[I];
    while (Open != 0) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Open));
      Open &= Open - 1;
      uint64_t Mask = uint64_t(1) << Bit;
      switch (decide(ContextTerms[Ctx], A, static_cast<Letter>(I * 64 + Bit))) {
      case Answer::Commutes:
        Commuting[I] |= Mask;
        Decided[I] |= Mask;
        break;
      case Answer::Dependent:
        Decided[I] |= Mask;
        break;
      case Answer::Cancelled:
        break;
      }
    }
    Words[I] &= Commuting[I];
  }
}

void CommutativityChecker::exportStatistics(Statistics &Out) const {
  static constexpr const char *Names[NumCounters] = {
      "commut_queries",         "commut_syntactic",
      "commut_cache_hits",      "commut_shared_hits",
      "commut_shared_subsumed", "commut_shared_misses",
      "commut_shared_stores",   "commut_static",
      "commut_octagon",         "commut_karr",
      "commut_cancelled",       "commut_semantic",
      "commut_sym_memo_hits"};
  for (size_t C = 0; C < NumCounters; ++C)
    if (Counts[C] != 0)
      Out.add(Names[C], static_cast<int64_t>(Counts[C]));
}

persist::Fingerprint CommutativityChecker::sharedKey(Term Phi, Letter MinL,
                                                     Letter MaxL) {
  const TermManager &TM = P.termManager();
  auto TextOf = [&](Letter L) -> const std::string & {
    auto [It, Inserted] = ActionTexts.try_emplace(L);
    if (Inserted)
      It->second = canonicalActionText(TM, P.action(L));
    return It->second;
  };
  if (!Phi) {
    auto [It, Inserted] =
        CtxFreeKeys.try_emplace((static_cast<uint64_t>(MinL) << 32) | MaxL);
    if (Inserted) {
      static const std::string TrueText = "true";
      It->second = CommutOracle::makeKey(TextOf(MinL), TextOf(MaxL), TrueText);
    }
    return It->second;
  }
  auto [It, Inserted] = PhiTexts.try_emplace(Phi);
  if (Inserted)
    It->second = TM.str(Phi);
  return CommutOracle::makeKey(TextOf(MinL), TextOf(MaxL), It->second);
}

void CommutativityChecker::publishShared(const persist::Fingerprint &Key,
                                         bool Commutes) {
  if (!Shared)
    return;
  Shared->publish(Key, Commutes);
  count(SharedStores);
}

bool CommutativityChecker::semanticCheck(Term Phi, Letter MinL, Letter MaxL) {
  TermManager &TM = QE.termManager();

  // The proof obligations depend only on the pair, not on Phi: build the
  // two symbolic compositions once per (min, max) and reuse them for every
  // context — only the unsat checks below re-run.
  auto [MemoIt, MemoInserted] = PairMemo.try_emplace({MinL, MaxL});
  PairObligations &Obl = MemoIt->second;
  if (MemoInserted) {
    const Action &A = P.action(MinL);
    const Action &B = P.action(MaxL);
    // Compose symbolically in both orders. Havoc primitives use canonical
    // fresh variables keyed by (letter, prim index) so the two orders
    // produce comparable symbols.
    std::map<std::pair<Letter, size_t>, Term> Havocs;
    SymbolicState AB = prog::symbolicIdentity(TM);
    applySymbolic(TM, A, AB, Havocs);
    applySymbolic(TM, B, AB, Havocs);
    SymbolicState BA = prog::symbolicIdentity(TM);
    applySymbolic(TM, B, BA, Havocs);
    applySymbolic(TM, A, BA, Havocs);

    Obl.CommonGuard = AB.Guard;
    Obl.GuardsDiffer = TM.mkNot(TM.mkIff(AB.Guard, BA.Guard));

    // Final values of all written variables must agree.
    std::vector<Term> Written;
    Written.insert(Written.end(), A.Writes.begin(), A.Writes.end());
    Written.insert(Written.end(), B.Writes.begin(), B.Writes.end());
    std::sort(Written.begin(), Written.end(),
              [](Term X, Term Y) { return X->id() < Y->id(); });
    Written.erase(std::unique(Written.begin(), Written.end()), Written.end());
    Obl.ValuesDiffer.reserve(Written.size());
    for (Term Var : Written) {
      if (Var->sort() == smt::Sort::Int)
        Obl.ValuesDiffer.push_back(TM.mkNot(
            TM.mkEq(AB.intValue(TM, Var), BA.intValue(TM, Var))));
      else
        Obl.ValuesDiffer.push_back(
            TM.mkNot(TM.mkIff(AB.boolValue(Var), BA.boolValue(Var))));
    }
  } else {
    count(SymMemoHits);
  }

  // Context-free screen, once per pair: discharge the obligations with no
  // context at all. A positive is the strongest possible answer — the
  // pair commutes under *every* Phi (monotonicity of unsat under added
  // conjuncts) — and it is what commutesUnder publishes to the shared
  // oracle under the pair's context-free key. Only a Dependent verdict
  // falls through to the per-Phi check below.
  if (Obl.CF == PairObligations::CtxFree::Unknown)
    Obl.CF = dischargeObligations(TM.mkTrue(), Obl)
                 ? PairObligations::CtxFree::Commutes
                 : PairObligations::CtxFree::Dependent;
  if (Obl.CF == PairObligations::CtxFree::Commutes)
    return true;
  if (!Phi)
    return false;
  return dischargeObligations(Phi, Obl);
}

bool CommutativityChecker::dischargeObligations(Term Context,
                                                PairObligations &Obl) {
  TermManager &TM = QE.termManager();
  if (!Incremental) {
    // Fresh-instance path: one throwaway solver per query, results cached
    // at the formula level inside the engine.
    // Guards must agree under the context: Context /\ (G_ab xor G_ba) unsat.
    if (!QE.isUnsat(TM.mkAnd(Context, Obl.GuardsDiffer)))
      return false;
    // Values must agree under the context and the (now common) guard.
    for (Term ValuesDiffer : Obl.ValuesDiffer)
      if (!QE.isUnsat(TM.mkAnd({Context, Obl.CommonGuard, ValuesDiffer})))
        return false;
    return true;
  }

  // Incremental path: the pair's session encodes each obligation once; the
  // context is one more assumable premise, so checks under a new Phi reuse
  // everything the previous contexts taught the solver. An Unknown answer
  // (budget or cancellation) reads as "not discharged", exactly like the
  // fresh path's isUnsat.
  if (!Obl.Sess) {
    Obl.Sess = QE.openSession();
    Obl.HGuardsDiffer = Obl.Sess->prepare(Obl.GuardsDiffer);
    Obl.HCommonGuard = Obl.Sess->prepare(Obl.CommonGuard);
    Obl.HValuesDiffer.reserve(Obl.ValuesDiffer.size());
    for (Term ValuesDiffer : Obl.ValuesDiffer)
      Obl.HValuesDiffer.push_back(Obl.Sess->prepare(ValuesDiffer));
  }
  smt::Session::Handle HCtx = Obl.Sess->prepare(Context);
  if (!Obl.Sess->isUnsatUnder({HCtx, Obl.HGuardsDiffer}))
    return false;
  for (smt::Session::Handle HValuesDiffer : Obl.HValuesDiffer)
    if (!Obl.Sess->isUnsatUnder({HCtx, Obl.HCommonGuard, HValuesDiffer}))
      return false;
  return true;
}
