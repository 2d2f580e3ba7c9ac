//===- core/Proof.cpp - Floyd/Hoare proof automaton -----------------------===//

#include "core/Proof.h"

#include <algorithm>
#include <cassert>

using namespace seqver;
using namespace seqver::core;
using seqver::automata::Letter;
using seqver::smt::Term;

ProofAutomaton::ProofAutomaton(smt::TermManager &TM, smt::QueryEngine &QE,
                               prog::FreshVarSource &Fresh,
                               const prog::ConcurrentProgram &P)
    : TM(TM), QE(QE), Fresh(Fresh), P(P) {
  // Predicate 0 is always "false".
  Predicates.push_back(TM.mkFalse());
  PredicateIds.emplace(TM.mkFalse(), FalseId);
}

uint32_t ProofAutomaton::addPredicate(Term Predicate) {
  auto It = PredicateIds.find(Predicate);
  if (It != PredicateIds.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Predicates.size());
  Predicates.push_back(Predicate);
  PredicateIds.emplace(Predicate, Id);
  return Id;
}

size_t ProofAutomaton::addSeedPredicates(const std::vector<Term> &Seeds) {
  size_t Added = 0;
  for (Term Seed : Seeds) {
    if (Seed == TM.mkTrue() || Seed == TM.mkFalse())
      continue;
    size_t Before = Predicates.size();
    addPredicate(Seed);
    Added += Predicates.size() - Before;
  }
  return Added;
}

Term ProofAutomaton::conjunction(SetId S) {
  if (S >= Conj.size())
    Conj.resize(Sets.size(), nullptr);
  if (Conj[S])
    return Conj[S];
  const PredSet &Preds = Sets[S];
  std::vector<Term> Conjuncts;
  Conjuncts.reserve(Preds.size());
  for (uint32_t Id : Preds)
    Conjuncts.push_back(Predicates[Id]);
  Conj[S] = TM.mkAnd(std::move(Conjuncts));
  return Conj[S];
}

bool ProofAutomaton::hoareHolds(HoareSession &HS, Term Pre, uint32_t PostId,
                                Term Post) {
  // Same fast paths as QueryEngine::implies, so the incremental gate gives
  // literally the verdicts the fresh path would.
  if (Pre == TM.mkFalse() || Post == TM.mkTrue() || Pre == Post)
    return true;
  if (!HS.Sess)
    HS.Sess = QE.openSession();
  auto [It, Inserted] = HS.NegPost.try_emplace(PostId);
  if (Inserted)
    It->second = HS.Sess->prepare(TM.mkNot(Post));
  return HS.Sess->isUnsatUnder({HS.Sess->prepare(Pre), It->second});
}

bool ProofAutomaton::refutes(const smt::Assignment &Model, Term Wp) {
  return smt::evalFormulaChecked(Wp, Model) == false;
}

SetId ProofAutomaton::initialSet() {
  Term Init = P.initialConstraint();
  PredSet Out;
  for (uint32_t Id = 0; Id < Predicates.size(); ++Id) {
    if (!isEnabled(Id))
      continue;
    ++HoareQueries;
    bool Holds = Incremental
                     ? hoareHolds(InitSession, Init, Id, Predicates[Id])
                     : QE.implies(Init, Predicates[Id]);
    if (Holds)
      Out.push_back(Id);
  }
  return Sets.intern(Out);
}

Term ProofAutomaton::wpCached(Letter L, uint32_t PredId) {
  auto Key = std::make_pair(L, PredId);
  auto It = WpCache.find(Key);
  if (It != WpCache.end())
    return It->second;
  Term Wp = prog::wpAction(TM, P.action(L), Predicates[PredId], Fresh);
  WpCache.emplace(Key, Wp);
  return Wp;
}

SetId ProofAutomaton::step(SetId S, Letter L) {
  size_t Slot = static_cast<size_t>(S) * P.numLetters() + L;
  if (Slot >= StepMemo.size())
    StepMemo.resize(Sets.size() * P.numLetters(), 0);
  if (StepMemo[Slot])
    return StepMemo[Slot] - 1;

  PredSet Out;
  Term Pre = conjunction(S);
  if (Pre == TM.mkFalse()) {
    // False is preserved by every action.
    Out.push_back(FalseId);
  } else {
    HoareSession *HS = Incremental ? &LetterSessions[L] : nullptr;
    // The top-level conjuncts of Pre, in mkAnd's canonical id order.
    const Term *Facts = &Pre;
    size_t NumFacts = 1;
    if (Pre->kind() == smt::TermKind::And) {
      Facts = Pre->children().data();
      NumFacts = Pre->children().size();
    }
    auto IsFact = [&](Term D) {
      return std::binary_search(
          Facts, Facts + NumFacts, D,
          [](Term A, Term B) { return A->id() < B->id(); });
    };
    auto Framed = [&](Term Wp) {
      if (IsFact(Wp))
        return true;
      if (Wp->kind() == smt::TermKind::Or)
        for (Term D : Wp->children())
          if (IsFact(D))
            return true;
      return false;
    };
    StepModels.clear();
    for (uint32_t Id = 0; Id < Predicates.size(); ++Id) {
      if (!isEnabled(Id))
        continue;
      ++HoareQueries;
      Term Wp = wpCached(L, Id);
      bool Holds;
      if (Framed(Wp)) {
        ++HoareFrame;
        Holds = true;
      } else if (std::any_of(StepModels.begin(), StepModels.end(),
                             [Wp](const smt::Assignment &M) {
                               return refutes(M, Wp);
                             })) {
        ++HoareModelRefuted;
        Holds = false;
      } else if (HS) {
        // A failing triple reached the session (the fast paths only prove);
        // keep its counter-model once it is checked to satisfy Pre.
        Holds = hoareHolds(*HS, Pre, Id, Wp);
        const smt::Assignment *Model =
            Holds ? nullptr : HS->Sess->lastModel();
        if (Model && smt::evalFormulaChecked(Pre, *Model) == true)
          StepModels.push_back(*Model);
      } else {
        Holds = QE.implies(Pre, Wp);
      }
      if (Holds)
        Out.push_back(Id);
    }
  }
  SetId Next = Sets.intern(Out);
  // Interning may have grown the set count but never the memo slot count
  // needed for S, so Slot is still in range.
  StepMemo[Slot] = Next + 1;
  return Next;
}

void ProofAutomaton::invalidateCaches() {
  std::fill(StepMemo.begin(), StepMemo.end(), 0);
  // The set interner and the conj and wp caches stay valid: they are keyed
  // by content that does not change when the pool grows. The incremental
  // Hoare sessions also survive on purpose — their premise handles and
  // verdict memos are keyed by terms/ids whose meaning is round-independent,
  // and reusing them is the whole point of the incremental gate.
}

void ProofAutomaton::setEnabledMask(std::vector<bool> Mask) {
  assert((Mask.empty() || Mask.size() == Predicates.size()) &&
         "mask size mismatch");
  assert((Mask.empty() || Mask[FalseId]) && "false must stay enabled");
  EnabledMask = std::move(Mask);
  invalidateCaches();
}

size_t ProofAutomaton::numEnabled() const {
  if (EnabledMask.empty())
    return Predicates.size();
  size_t Count = 0;
  for (bool Enabled : EnabledMask)
    Count += Enabled;
  return Count;
}
