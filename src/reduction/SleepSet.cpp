//===- reduction/SleepSet.cpp - Sleep set automaton (Def. 5.1) ------------===//

#include "reduction/SleepSet.h"

#include "automata/Explore.h"
#include "support/Bitset.h"
#include "support/InternTable.h"

#include <cassert>

using namespace seqver;
using namespace seqver::red;
using seqver::automata::Dfa;
using seqver::automata::Letter;
using seqver::automata::State;

namespace {

/// Builds the successor sleep set of Def. 5.1 into the interner's scratch
/// buffer and interns it:
///   S' = { b in enabled(q) | (b in S or b <_ctx a) and a ~ b }.
/// Commutes may be conditional at the caller's discretion (Sec. 7.2).
template <typename CommutesT>
SleepSetId internSuccessorSleepSet(SleepSetInterner &Intern,
                                   const std::vector<Letter> &Enabled,
                                   SleepSetId S, Letter A,
                                   const PreferenceOrder &Order,
                                   PreferenceOrder::Context Ctx,
                                   const CommutesT &Commutes) {
  Intern.scratchClear();
  for (Letter B : Enabled) {
    if (B == A)
      continue;
    if ((Intern.test(S, B) || Order.less(Ctx, B, A)) && Commutes(A, B))
      Intern.scratchSet(B);
  }
  return Intern.internScratch();
}

/// Implicit sleep set automaton over an explicit Dfa. Sleep sets are
/// interned: the state is three integers, so the materialization index
/// hashes and compares it in O(1).
struct DfaSleepAutomaton {
  struct StateType {
    State Q;
    SleepSetId Sleep;
    PreferenceOrder::Context Ctx;

    bool operator==(const StateType &) const = default;
    uint64_t hash() const {
      return hashCombine(hashCombine(hashMix(Q), Sleep), Ctx);
    }
  };

  const Dfa &A;
  const PreferenceOrder &Order;
  const CommutesFn &Commutes;
  SleepSetInterner Intern;

  DfaSleepAutomaton(const Dfa &A, const PreferenceOrder &Order,
                    const CommutesFn &Commutes)
      : A(A), Order(Order), Commutes(Commutes), Intern(A.numLetters()) {}

  StateType initialState() {
    return {A.initial(), SleepSetInterner::EmptySetId,
            PreferenceOrder::InitialContext};
  }
  bool isAccepting(const StateType &S) { return A.isAccepting(S.Q); }
  std::vector<std::pair<Letter, StateType>> successors(const StateType &St) {
    std::vector<std::pair<Letter, StateType>> Out;
    std::vector<Letter> Enabled = A.enabledLetters(St.Q);
    for (Letter L : Enabled) {
      if (Intern.test(St.Sleep, L))
        continue;
      State Next = *A.step(St.Q, L);
      SleepSetId NextSleep = internSuccessorSleepSet(
          Intern, Enabled, St.Sleep, L, Order, St.Ctx, Commutes);
      Out.push_back({L, {Next, NextSleep, Order.advance(St.Ctx, L)}});
    }
    return Out;
  }
};

} // namespace

Dfa seqver::red::sleepSetAutomaton(const Dfa &A, const PreferenceOrder &Order,
                                   const CommutesFn &Commutes,
                                   uint32_t MaxStates, bool *Overflow) {
  DfaSleepAutomaton Impl(A, Order, Commutes);
  auto Result = automata::materialize(Impl, A.numLetters(), MaxStates,
                                      Overflow);
  return std::move(Result.Automaton);
}

Dfa seqver::red::piReduce(
    const Dfa &A,
    const std::function<std::vector<Letter>(State)> &Pi) {
  Dfa Out(A.numLetters());
  for (State S = 0; S < A.numStates(); ++S)
    Out.addState(A.isAccepting(S));
  Out.setInitial(A.initial());
  for (State S = 0; S < A.numStates(); ++S) {
    std::vector<Letter> Allowed = Pi(S);
    Bitset Mask(A.numLetters());
    for (Letter L : Allowed)
      Mask.set(L);
    for (const auto &[L, To] : A.transitionsFrom(S))
      if (Mask.test(L))
        Out.addTransition(S, L, To);
  }
  return Out;
}

namespace {

/// Implicit combined reduction over a program: sleep sets composed with the
/// persistent-set pi-reduction (Sec. 6.2). Product states and sleep sets
/// are both interned, so a materialization-index probe hashes three
/// integers and a context word instead of a location vector and a bitset.
struct ProgramReductionAutomaton {
  struct StateType {
    uint32_t QId;
    SleepSetId Sleep;
    PreferenceOrder::Context Ctx;

    bool operator==(const StateType &) const = default;
    uint64_t hash() const {
      return hashCombine(hashCombine(hashMix(QId), Sleep), Ctx);
    }
  };

  const prog::ConcurrentProgram &P;
  const PreferenceOrder *Order;
  CommutativityChecker &Commut;
  const ReductionConfig &Config;
  PersistentSetComputer *Persistent; // null if disabled

  InternTable<prog::ProductState> Products;
  SleepSetInterner Sleeps;
  std::vector<Letter> Enabled; // reused per successors() call

  ProgramReductionAutomaton(const prog::ConcurrentProgram &P,
                            const PreferenceOrder *Order,
                            CommutativityChecker &Commut,
                            const ReductionConfig &Config,
                            PersistentSetComputer *Persistent)
      : P(P), Order(Order), Commut(Commut), Config(Config),
        Persistent(Persistent), Sleeps(P.numLetters()) {}

  StateType initialState() {
    return {Products.intern(P.initialProductState()),
            SleepSetInterner::EmptySetId, PreferenceOrder::InitialContext};
  }
  bool isAccepting(const StateType &S) {
    const prog::ProductState &Q = Products[S.QId];
    return Config.Mode == prog::AcceptMode::Error ? P.isErrorState(Q)
                                                  : P.isAllExitState(Q);
  }
  std::vector<std::pair<Letter, StateType>> successors(const StateType &St) {
    std::vector<std::pair<Letter, StateType>> Out;
    auto Successors = P.successors(Products[St.QId]); // empty for errors
    if (Successors.empty())
      return Out;

    // pi_S(q, S) = pi(q) \ S: membership filter below.
    SleepSetId Membrane = 0;
    if (Persistent)
      Membrane = Persistent->compute(St.QId, Products[St.QId], St.Ctx);

    Enabled.clear();
    for (const auto &[L, Next] : Successors) {
      (void)Next;
      Enabled.push_back(L);
    }

    Out.reserve(Successors.size());
    for (auto &[L, Next] : Successors) {
      if (Sleeps.test(St.Sleep, L))
        continue;
      if (Persistent && !Persistent->membranes().test(Membrane, L))
        continue;
      SleepSetId NextSleep = SleepSetInterner::EmptySetId;
      if (Config.UseSleepSets) {
        assert(Order && "sleep sets require a preference order");
        NextSleep = internSuccessorSleepSet(
            Sleeps, Enabled, St.Sleep, L, *Order, St.Ctx,
            [this](Letter A, Letter B) { return Commut.commutes(A, B); });
      }
      PreferenceOrder::Context NextCtx =
          Order ? Order->advance(St.Ctx, L) : PreferenceOrder::InitialContext;
      Out.push_back(
          {L, {Products.intern(std::move(Next)), NextSleep, NextCtx}});
    }
    return Out;
  }
};

} // namespace

ProgramReduction seqver::red::buildReduction(const prog::ConcurrentProgram &P,
                                             const PreferenceOrder *Order,
                                             CommutativityChecker &Commut,
                                             const ReductionConfig &Config) {
  assert((Order || !Config.UseSleepSets) &&
         "sleep sets require a preference order");
  std::unique_ptr<PersistentSetComputer> Persistent;
  if (Config.UsePersistentSets)
    Persistent =
        std::make_unique<PersistentSetComputer>(P, Commut, Order);
  ProgramReduction Result;
  ProgramReductionAutomaton Impl(P, Order, Commut, Config, Persistent.get());
  auto Materialized =
      automata::materialize(Impl, P.numLetters(), Config.MaxStates,
                            &Result.Overflow, Config.ReserveHint);
  Result.Automaton = std::move(Materialized.Automaton);
  if (Config.Stats) {
    Config.Stats->add("reduction_states",
                      static_cast<int64_t>(Result.Automaton.numStates()));
    Config.Stats->add("sleepset_intern_hits",
                      static_cast<int64_t>(Impl.Sleeps.hits()));
    Config.Stats->add("sleepset_intern_misses",
                      static_cast<int64_t>(Impl.Sleeps.misses()));
    Config.Stats->setMax("sleepset_distinct",
                         static_cast<int64_t>(Impl.Sleeps.size()));
    Config.Stats->setMax("sleepset_inline_repr",
                         Impl.Sleeps.inlineWords() ? 1 : 0);
  }
  return Result;
}
