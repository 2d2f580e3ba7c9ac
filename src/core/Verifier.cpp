//===- core/Verifier.cpp - Trace abstraction with sequentialization -------===//

#include "core/Verifier.h"

#include "analysis/KarrProp.h"
#include "analysis/OctagonProp.h"
#include "core/Interpolation.h"
#include "persist/Fingerprint.h"
#include "persist/ProofCache.h"
#include "persist/TermIO.h"

#include "support/InternTable.h"

#include <algorithm>
#include <cassert>

using namespace seqver;
using namespace seqver::core;
using seqver::automata::Letter;
using seqver::prog::ProductState;
using seqver::red::PreferenceOrder;
using seqver::smt::Term;

std::string seqver::core::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Correct:
    return "correct";
  case Verdict::Incorrect:
    return "incorrect";
  case Verdict::Timeout:
    return "timeout";
  case Verdict::Unknown:
    return "unknown";
  case Verdict::Cancelled:
    return "cancelled";
  }
  return "invalid";
}

void seqver::core::storeProof(const std::string &Dir,
                              const persist::Fingerprint &FP,
                              const std::string &Order,
                              const VerificationResult &R,
                              Statistics &Stats) {
  if (!isDecisive(R.V))
    return;
  persist::StoredProof Stored;
  Stored.Verdict = verdictName(R.V);
  Stored.Order = Order;
  Stored.Rounds = R.CacheRounds;
  if (R.V == Verdict::Correct)
    Stored.Predicates = R.ProofAssertions;
  uint64_t Evicted = 0;
  if (persist::ProofCache(Dir).store(FP, Stored, &Evicted)) {
    Stats.add("cache_stores");
    Stats.add("cache_evicted", static_cast<int64_t>(Evicted));
  }
}

namespace {

/// True iff Sub (sorted) is a subset of Super (sorted).
bool isSubset(const PredSet &Sub, const PredSet &Super) {
  return std::includes(Super.begin(), Super.end(), Sub.begin(), Sub.end());
}

/// Collects the atomic boolean sub-formulas of Formula (linear atoms,
/// boolean variables, and disequalities) into Atoms.
void collectAtoms(Term Formula, std::vector<Term> &Atoms) {
  switch (Formula->kind()) {
  case smt::TermKind::BoolConst:
    return;
  case smt::TermKind::BoolVar:
  case smt::TermKind::AtomLe:
  case smt::TermKind::AtomEq:
    Atoms.push_back(Formula);
    return;
  case smt::TermKind::Not:
    collectAtoms(Formula->child(0), Atoms);
    return;
  case smt::TermKind::And:
  case smt::TermKind::Or:
  case smt::TermKind::Iff:
    for (Term Child : Formula->children())
      collectAtoms(Child, Atoms);
    return;
  case smt::TermKind::IntVar:
    assert(false && "int term in boolean position");
    return;
  }
}

/// Most assertion sets the useless-state table records per node.
constexpr size_t MaxUselessEntriesPerNode = 8;

} // namespace

class Verifier::Impl {
public:
  Impl(const prog::ConcurrentProgram &P, const VerifierConfig &Config)
      : P(P), Config(Config), TM(P.termManager()), QE(TM), Fresh(TM),
        Commut(P, QE, Config.CommutMode), Proof(TM, QE, Fresh, P),
        SleepIntern(P.numLetters()) {
    if (!Config.StaticTier)
      Commut.disableStaticTier();
    if (Config.SharedCommut)
      Commut.setSharedOracle(Config.SharedCommut);
    // Semantic commutativity queries are the most expensive step between
    // two DFS polls; have the checker poll the same stop conditions.
    if (Config.Cancel)
      Commut.watchCancellation(Config.Cancel);
    Commut.watchCancellation(&OwnDeadline);
    // The query engine propagates the tokens into every solver it creates
    // (fresh-path instances and sessions), so even a single long DPLL(T)
    // search notices a portfolio cancel mid-solve.
    if (Config.Cancel)
      QE.watchCancellation(Config.Cancel);
    QE.watchCancellation(&OwnDeadline);
    Commut.setIncremental(Config.IncrementalSmt);
    Proof.setIncremental(Config.IncrementalSmt);
    if (Config.UsePersistentSets) {
      // Precompute the static independence relation once so the persistent
      // set construction consults a bitset instead of re-deciding pairs.
      // Runs before the octagon context is installed: the conflict relation
      // must stay location-independent (a persistent-set membrane applies
      // at every state, not just where the invariants hold).
      if (analysis::StaticCommutativity *Tier = Commut.staticTier())
        StaticIndep = Tier->conflictRelation();
      Persistent = std::make_unique<red::PersistentSetComputer>(
          P, Commut, Config.Order,
          StaticIndep.numLetters() ? &StaticIndep : nullptr);
    }
    // Relational and affine invariants feed two optional consumers each:
    // the conditional commutativity sub-tiers and proof seeding. One
    // analysis run per domain serves both.
    bool InvariantTiersApply =
        Config.StaticTier &&
        Config.CommutMode != red::CommutativityChecker::Mode::Full;
    bool WantOctagonTier = InvariantTiersApply && Config.OctagonTier;
    bool WantKarrTier = InvariantTiersApply && Config.KarrTier;
    if (WantOctagonTier || Config.SeedProof)
      Oct = std::make_unique<analysis::OctagonAnalysis>(P);
    if (Config.KarrTier && (WantKarrTier || Config.SeedProof))
      Karr = std::make_unique<analysis::KarrAnalysis>(P);
    std::vector<const analysis::InvariantSource *> Context;
    if (WantOctagonTier)
      Context.push_back(Oct.get());
    if (WantKarrTier)
      Context.push_back(Karr.get());
    if (!Context.empty())
      Commut.setInvariantContext(std::move(Context));
    if (Config.SeedProof) {
      size_t Seeded = Proof.addSeedPredicates(
          Oct->seedPredicates(Config.MaxSeedPredicates));
      Stats.add("seeded_predicates", static_cast<int64_t>(Seeded));
      if (Karr) {
        size_t KarrSeeded = Proof.addSeedPredicates(
            Karr->seedPredicates(Config.MaxSeedPredicates));
        Stats.add("karr_seeded", static_cast<int64_t>(KarrSeeded));
      }
    }
    // Persistent proof cache (docs/PERSIST.md): fingerprint the program
    // and warm-start from a stored proof. Loaded predicates pass through
    // the same Hoare-gated seam as the invariant seeds above, so a hit on
    // a poisoned or semantically stale record costs Hoare queries, never
    // soundness. Variables the program does not mention (another run's
    // havoc symbols) were remapped into the `cache!` namespace by the
    // parser, so they cannot capture this run's fresh symbols.
    if (!Config.CacheDir.empty()) {
      FP = persist::fingerprintProgram(P);
      HaveFingerprint = true;
      persist::ProofCache Cache(Config.CacheDir);
      persist::StoredProof Stored;
      if (Cache.load(FP, Stored)) {
        Stats.add("cache_hits");
        CachedRounds = Stored.Rounds;
        std::vector<std::string> Known = persist::programVariableNames(P);
        persist::ParseOptions PO;
        PO.KnownVars = &Known;
        std::vector<Term> Seeds;
        Seeds.reserve(Stored.Predicates.size());
        for (const std::string &Text : Stored.Predicates) {
          persist::ParseResult PR = persist::parseTerm(TM, Text, PO);
          if (PR.ok())
            Seeds.push_back(PR.Value);
        }
        size_t Seeded = Proof.addSeedPredicates(Seeds);
        Stats.add("cache_seeded", static_cast<int64_t>(Seeded));
        WarmStarted = Seeded > 0;
      } else {
        Stats.add("cache_misses");
      }
    }
    assert((Config.Order || !Config.UseSleepSets) &&
           "sleep sets require a preference order");
  }

  VerificationResult run();

private:
  /// The DFS node identity: product state, order context, sleep set, proof
  /// assertion set. Every structured component is interned to a dense id
  /// (the assertion set by the proof automaton, the rest by the
  /// per-verifier tables below), so a key is four integers: hashing,
  /// comparing, and copying a DFS node is O(1) regardless of thread count,
  /// alphabet size, or proof size (the per-state constant-factor half of the
  /// paper's linear-size-reduction argument; see docs/PERF.md).
  struct Key {
    uint32_t Q = 0;                ///< Interned ProductState id.
    PreferenceOrder::Context Ctx = PreferenceOrder::InitialContext;
    SleepSetId Sleep = SleepSetInterner::EmptySetId;
    SetId Phi = 0;                 ///< ProofAutomaton set id.

    bool operator==(const Key &) const = default;
    uint64_t hash() const {
      return hashCombine(hashCombine(hashCombine(hashMix(Q), Ctx), Sleep),
                         Phi);
    }
  };

  enum class NodeStatus : uint8_t { OnStack, DoneUseless, DoneUnknown };

  /// Outcome of one proof-check round.
  struct RoundResult {
    enum class Kind { ProofValid, Counterexample, Aborted } K;
    std::vector<Letter> Trace;
    /// True when the counterexample ends at an all-exit state and violates
    /// the postcondition (pre/post setting) rather than reaching an error
    /// location.
    bool IsExitTrace = false;
  };

  /// One DFS frame: a node on the stack, its successors, and its
  /// useless-table entry (interned at push, so the pop that marks the node
  /// useless appends to it without another lookup).
  struct Frame {
    Key Node;
    Letter InLetter = 0;
    uint32_t VisitedId = 0;
    std::vector<std::pair<Letter, Key>> Succs;
    size_t NextIndex = 0;
    bool TouchedUnknown = false;
    uint32_t UselessId = 0;
  };

  RoundResult checkProofRound();
  void expand(const Key &Node, std::vector<std::pair<Letter, Key>> &Out);
  /// True iff entry UselessId records a subset of Phi (a weaker assertion
  /// set under which the node was already counterexample-free).
  bool uselessCovers(uint32_t UselessId, SetId Phi);
  void markUseless(const Frame &F);
  /// Interns S; a new id gets its error and all-exit flags.
  uint32_t internState(const ProductState &S);
  /// The successors of state Q as a [begin, end) range of SuccArena,
  /// computed on first use.
  std::pair<uint32_t, uint32_t> successorsOf(uint32_t Q);
  size_t minimizeProof();

  /// External cancellation (the portfolio race), as opposed to running out
  /// of budget: decides Verdict::Cancelled vs Verdict::Timeout.
  bool cancelRequested() const {
    return Config.Cancel && Config.Cancel->cancelRequested();
  }
  /// Any reason to stop: external cancel, external deadline, own deadline
  /// (Config.TimeoutSeconds, armed at the top of run()).
  bool stopRequested() const {
    return (Config.Cancel && Config.Cancel->stopRequested()) ||
           OwnDeadline.deadlineExpired();
  }
  /// The verdict of a run that ends undecided: a stop request interrupts
  /// the solvers too, so an Unknown seen while one is pending is the stop's.
  Verdict undecidedVerdict() const {
    if (!stopRequested())
      return Verdict::Unknown;
    return cancelRequested() ? Verdict::Cancelled : Verdict::Timeout;
  }

  const prog::ConcurrentProgram &P;
  VerifierConfig Config;
  smt::TermManager &TM;
  smt::QueryEngine QE;
  prog::FreshVarSource Fresh;
  red::CommutativityChecker Commut;
  ProofAutomaton Proof;
  std::unique_ptr<analysis::OctagonAnalysis> Oct;
  std::unique_ptr<analysis::KarrAnalysis> Karr;
  analysis::ConflictRelation StaticIndep;
  std::unique_ptr<red::PersistentSetComputer> Persistent;

  /// Proof-cache state (docs/PERSIST.md). The fingerprint is computed once
  /// in the constructor; CachedRounds is the producing run's round count
  /// and survives write-back so warm hits keep reporting their savings.
  persist::Fingerprint FP;
  bool HaveFingerprint = false;
  bool WarmStarted = false;
  uint64_t CachedRounds = 0;

  /// Per-verifier interners. They persist across refinement rounds (and
  /// through proof minimization), so sleep sets and product states
  /// recurring between rounds hash straight to their old ids — and the
  /// keys of the cross-round useless table stay valid (so do the proof
  /// automaton's set ids). Never shared across portfolio workers: each
  /// worker's verifier owns its tables, keeping the hot path lock-free
  /// (docs/RUNTIME.md).
  SleepSetInterner SleepIntern;
  InternTable<ProductState> StateIntern;

  /// Per product-state id: the error and all-exit flags, and the
  /// successors, memoized as a range of SuccArena (letter, successor id)
  /// pairs in increasing letter order once the state is first expanded.
  struct StateInfo {
    uint32_t SuccBegin = 0;
    uint32_t SuccEnd = 0;
    bool Expanded = false;
    bool Error = false;
    bool AllExit = false;
  };
  std::vector<StateInfo> States;
  std::vector<std::pair<Letter, uint32_t>> SuccArena;

  /// Cross-round useless-state table: (Q, Ctx, Sleep) interned to an
  /// entry id; UselessPhis[id] holds up to MaxUselessEntriesPerNode ids of
  /// assertion sets under which the node was counterexample-free (none
  /// yet for a node pushed but not marked). Monotonicity of proof-
  /// sensitive commutativity (Sec. 7.2) keeps the entries valid as the
  /// proof grows; proof minimization sets the table aside.
  struct UselessKey {
    uint32_t Q = 0;
    SleepSetId Sleep = SleepSetInterner::EmptySetId;
    PreferenceOrder::Context Ctx = PreferenceOrder::InitialContext;
    bool operator==(const UselessKey &) const = default;
    uint64_t hash() const {
      return hashCombine(hashCombine(hashMix(Q), Ctx), Sleep);
    }
  };
  struct UselessPhis {
    uint32_t Count = 0;
    SetId Phis[MaxUselessEntriesPerNode];
  };
  struct UselessTable {
    InternTable<UselessKey> Keys;
    std::vector<UselessPhis> Entries;
  } Useless;

  /// Hot-path work counters, exported once by run() (docs/PERF.md §4).
  uint64_t SleepPruned = 0;
  uint64_t PersistentPruned = 0;
  uint64_t UselessHits = 0;

  /// Per-round DFS state, kept as members so refinement rounds reuse the
  /// allocations: the visited index (hashed, interning Keys to dense ids
  /// aligned with VisitStatus), the frame stack, and a pool of successor
  /// vectors recycled on frame pop.
  InternTable<Key> Visited;
  std::vector<NodeStatus> VisitStatus;
  std::vector<Frame> Stack;
  std::vector<std::vector<std::pair<Letter, Key>>> SuccPool;

  /// Config.TimeoutSeconds mapped onto the cancellation mechanism.
  runtime::CancellationToken OwnDeadline;
  Statistics Stats;
};

uint32_t Verifier::Impl::internState(const ProductState &S) {
  bool Inserted = false;
  uint32_t Id = StateIntern.intern(S, &Inserted);
  if (Inserted) {
    StateInfo Info;
    Info.Error = P.isErrorState(S);
    Info.AllExit = P.isAllExitState(S);
    States.push_back(Info);
  }
  return Id;
}

std::pair<uint32_t, uint32_t> Verifier::Impl::successorsOf(uint32_t Q) {
  if (!States[Q].Expanded) {
    // Copies the state: interning a successor may move the arena.
    auto Successors = P.successors(StateIntern[Q]); // empty at errors
    uint32_t Begin = static_cast<uint32_t>(SuccArena.size());
    for (const auto &[L, NextQ] : Successors) {
      uint32_t NextId = internState(NextQ);
      SuccArena.emplace_back(L, NextId);
    }
    StateInfo &Info = States[Q];
    Info.SuccBegin = Begin;
    Info.SuccEnd = static_cast<uint32_t>(SuccArena.size());
    Info.Expanded = true;
  }
  return {States[Q].SuccBegin, States[Q].SuccEnd};
}

bool Verifier::Impl::uselessCovers(uint32_t UselessId, SetId Phi) {
  const UselessPhis &E = Useless.Entries[UselessId];
  const PredSet &Set = Proof.set(Phi);
  for (uint32_t I = 0; I < E.Count; ++I)
    if (E.Phis[I] == Phi || isSubset(Proof.set(E.Phis[I]), Set))
      return true;
  return false;
}

void Verifier::Impl::markUseless(const Frame &F) {
  // Re-checked: the entry may have grown since the push (a descendant with
  // the same (Q, Ctx, Sleep) under another assertion set).
  if (uselessCovers(F.UselessId, F.Node.Phi))
    return; // already subsumed
  UselessPhis &E = Useless.Entries[F.UselessId];
  if (E.Count < MaxUselessEntriesPerNode)
    E.Phis[E.Count++] = F.Node.Phi;
}

void Verifier::Impl::expand(const Key &Node,
                            std::vector<std::pair<Letter, Key>> &Out) {
  Out.clear();
  if (Proof.isFalse(Node.Phi))
    return; // covered by the proof

  auto [Begin, End] = successorsOf(Node.Q);
  if (Begin == End)
    return;

  SleepSetId Membrane = 0;
  if (Persistent)
    Membrane = Persistent->compute(Node.Q, StateIntern[Node.Q], Node.Ctx);

  Term Phi = Config.ProofSensitive ? Proof.conjunction(Node.Phi) : nullptr;
  uint32_t CommutCtx = Config.UseSleepSets ? Commut.contextId(Phi) : 0;

  Out.reserve(End - Begin);
  for (uint32_t I = Begin; I < End; ++I) {
    auto [L, NextQ] = SuccArena[I];
    if (Config.UseSleepSets && SleepIntern.test(Node.Sleep, L)) {
      ++SleepPruned;
      continue;
    }
    if (Persistent && !Persistent->membranes().test(Membrane, L)) {
      ++PersistentPruned;
      continue;
    }
    Key Next;
    Next.Q = NextQ;
    Next.Ctx = Config.Order ? Config.Order->advance(Node.Ctx, L)
                            : PreferenceOrder::InitialContext;
    Next.Sleep = SleepSetInterner::EmptySetId;
    if (Config.UseSleepSets) {
      // Def. 5.1 with proof-sensitive commutativity: the candidates are the
      // enabled letters other than L that sleep or are preferred over L;
      // the successor sleep set keeps those commuting with L under Phi.
      SleepIntern.scratchClear();
      for (uint32_t J = Begin; J < End; ++J) {
        Letter B = SuccArena[J].first;
        if (B != L && (SleepIntern.test(Node.Sleep, B) ||
                       Config.Order->less(Node.Ctx, B, L)))
          SleepIntern.scratchSet(B);
      }
      Commut.keepCommuting(CommutCtx, L, SleepIntern.scratchWords());
      Next.Sleep = SleepIntern.internScratch();
    }
    Next.Phi = Proof.step(Node.Phi, L);
    Out.emplace_back(L, Next);
  }

  // Explore most-preferred letters first: minimal counterexamples surface
  // early and match the reduction's representatives.
  if (Config.Order) {
    std::stable_sort(Out.begin(), Out.end(),
                     [this, &Node](const auto &A, const auto &B) {
                       return Config.Order->less(Node.Ctx, A.first, B.first);
                     });
  }
}

Verifier::Impl::RoundResult Verifier::Impl::checkProofRound() {
  // Per-round structures are members: clear() drops entries but keeps the
  // arena, index, stack, and successor-vector allocations of the previous
  // round (and pools keep capacity across rounds), so a refinement round
  // does not re-malloc its DFS scaffolding.
  Visited.clear();
  VisitStatus.clear();
  Stack.clear();
  uint64_t Steps = 0;
  bool ExitCtex = false;
  const bool CheckPost = P.hasPostCondition();
  Term Post = P.postCondition();

  auto AcquireSuccs = [&]() -> std::vector<std::pair<Letter, Key>> {
    if (SuccPool.empty())
      return {};
    auto Out = std::move(SuccPool.back());
    SuccPool.pop_back();
    return Out;
  };

  Key Init;
  Init.Q = internState(P.initialProductState());
  Init.Ctx = PreferenceOrder::InitialContext;
  Init.Sleep = SleepSetInterner::EmptySetId;
  Init.Phi = Proof.initialSet();

  auto Push = [&](const Key &Node, Letter InLetter) -> bool {
    // Returns false if the node produced a counterexample.
    const StateInfo &Info = States[Node.Q];
    if (Info.Error && !Proof.isFalse(Node.Phi))
      return false;
    if (CheckPost && Info.AllExit && !Proof.isFalse(Node.Phi) &&
        !QE.implies(Proof.conjunction(Node.Phi), Post)) {
      ExitCtex = true;
      return false;
    }
    // One useless-table probe per push; the frame keeps the entry id.
    uint32_t UselessId = 0;
    if (Config.UselessStateCache) {
      bool NewKey = false;
      UselessId =
          Useless.Keys.intern({Node.Q, Node.Sleep, Node.Ctx}, &NewKey);
      if (NewKey)
        Useless.Entries.emplace_back();
      else if (uselessCovers(UselessId, Node.Phi)) {
        // Counts as a useless (done) node: nothing to propagate.
        ++UselessHits;
        return true;
      }
    }
    bool Inserted = false;
    uint32_t VId = Visited.intern(Node, &Inserted);
    if (!Inserted) {
      // Gray or non-useless black nodes taint the parent's subtree.
      if (VisitStatus[VId] != NodeStatus::DoneUseless && !Stack.empty())
        Stack.back().TouchedUnknown = true;
      return true;
    }
    VisitStatus.push_back(NodeStatus::OnStack);
    Frame F;
    F.Succs = AcquireSuccs();
    expand(Node, F.Succs);
    F.Node = Node;
    F.InLetter = InLetter;
    F.VisitedId = VId;
    F.UselessId = UselessId;
    Stack.push_back(std::move(F));
    return true;
  };

  if (!Push(Init, 0)) {
    return {RoundResult::Kind::Counterexample, {}, ExitCtex};
  }

  while (!Stack.empty()) {
    // Cheap cancellation/deadline poll on every DFS step (push or pop);
    // the mask keeps the clock read off the per-step path. This is the
    // innermost poll point of the cancellation contract (docs/RUNTIME.md).
    if ((++Steps & 0x3FF) == 0 &&
        (stopRequested() || Visited.size() > Config.MaxVisitedPerRound)) {
      Stats.setMax("peak_visited", static_cast<int64_t>(Visited.size()));
      return {RoundResult::Kind::Aborted, {}};
    }
    Frame &Top = Stack.back();
    if (Top.NextIndex < Top.Succs.size()) {
      auto &[L, Next] = Top.Succs[Top.NextIndex++];
      if (!Push(Next, L)) {
        // Counterexample: the path of in-letters plus this letter.
        std::vector<Letter> Trace;
        for (size_t I = 1; I < Stack.size(); ++I)
          Trace.push_back(Stack[I].InLetter);
        Trace.push_back(L);
        Stats.setMax("peak_visited", static_cast<int64_t>(Visited.size()));
        return {RoundResult::Kind::Counterexample, std::move(Trace),
                ExitCtex};
      }
      continue;
    }
    // Pop.
    bool Done = !Top.TouchedUnknown;
    VisitStatus[Top.VisitedId] =
        Done ? NodeStatus::DoneUseless : NodeStatus::DoneUnknown;
    if (Done && Config.UselessStateCache)
      markUseless(Top);
    bool Propagate = Top.TouchedUnknown;
    SuccPool.push_back(std::move(Top.Succs));
    SuccPool.back().clear();
    Stack.pop_back();
    if (Propagate && !Stack.empty())
      Stack.back().TouchedUnknown = true;
  }
  Stats.setMax("peak_visited", static_cast<int64_t>(Visited.size()));
  Stats.add("visited_total", static_cast<int64_t>(Visited.size()));
  return {RoundResult::Kind::ProofValid, {}};
}

VerificationResult Verifier::Impl::run() {
  VerificationResult Result;
  Timer Total;
  OwnDeadline.armDeadline(Config.TimeoutSeconds);

  for (int Round = 1; Round <= Config.MaxRounds; ++Round) {
    Result.Rounds = Round;
    if (stopRequested()) {
      Result.V = cancelRequested() ? Verdict::Cancelled : Verdict::Timeout;
      break;
    }
    RoundResult RR = checkProofRound();
    if (RR.K == RoundResult::Kind::Aborted) {
      Result.V = cancelRequested() ? Verdict::Cancelled : Verdict::Timeout;
      break;
    }
    if (RR.K == RoundResult::Kind::ProofValid) {
      Result.V = Verdict::Correct;
      break;
    }

    TraceAnalysis Analysis =
        analyzeTrace(TM, QE, Fresh, P, RR.Trace,
                     RR.IsExitTrace ? P.postCondition() : nullptr);
    if (Analysis.Status == TraceStatus::Feasible) {
      Result.V = Verdict::Incorrect;
      Result.Witness = RR.Trace;
      break;
    }
    if (Analysis.Status == TraceStatus::Unknown) {
      Result.V = undecidedVerdict();
      break;
    }

    size_t PoolBefore = Proof.numPredicates();
    auto AddChain = [this](const std::vector<Term> &Chain) {
      for (Term Assertion : Chain) {
        if (Assertion == TM.mkTrue())
          continue;
        Proof.addPredicate(Assertion);
        if (Config.AtomPredicates) {
          std::vector<Term> Atoms;
          collectAtoms(Assertion, Atoms);
          for (Term Atom : Atoms) {
            Proof.addPredicate(Atom);
            Proof.addPredicate(TM.mkNot(Atom));
          }
        }
      }
    };
    bool Interpolated = false;
    if (Config.Source != PredicateSource::WpChain) {
      TraceInterpolation TI = sequenceInterpolants(
          TM, P, RR.Trace, RR.IsExitTrace ? P.postCondition() : nullptr);
      if (TI.Success) {
        AddChain(TI.Chain);
        Interpolated = true;
        Stats.add("interpolated_traces");
      } else {
        Stats.add("interpolation_fallbacks");
      }
    }
    if (Config.Source != PredicateSource::Interpolation || !Interpolated)
      AddChain(Analysis.WpChain);
    if (Proof.numPredicates() == PoolBefore) {
      // No progress: can only happen if a solver Unknown weakened coverage.
      Result.V = undecidedVerdict();
      break;
    }
    Proof.invalidateCaches();
    if (Round == Config.MaxRounds)
      Result.V = Verdict::Timeout;
  }

  Result.ProofSize = Proof.numPredicates();
  if (Result.V == Verdict::Correct && Config.MinimizeProof)
    Result.MinimizedProofSize = minimizeProof();
  Result.Seconds = Total.seconds();
  if (Result.V == Verdict::Correct)
    for (uint32_t Id = 0; Id < Proof.numPredicates(); ++Id)
      if (Proof.predicateEnabled(Id)) // full pool unless minimized
        Result.ProofAssertions.push_back(TM.str(Proof.predicate(Id)));
  Stats.add("rounds", Result.Rounds);
  // Hot-path counters, exported once under their historical names; like
  // every Statistics entry, a counter that never fired stays absent.
  for (auto [Name, Value] : {std::pair{"sleep_pruned", SleepPruned},
                             std::pair{"persistent_pruned", PersistentPruned},
                             std::pair{"useless_cache_hits", UselessHits}})
    if (Value != 0)
      Stats.add(Name, static_cast<int64_t>(Value));
  Commut.exportStatistics(Stats);
  if (HaveFingerprint) {
    if (WarmStarted && Result.V == Verdict::Correct &&
        CachedRounds > static_cast<uint64_t>(Result.Rounds))
      Stats.add("rounds_saved_warm",
                static_cast<int64_t>(CachedRounds -
                                     static_cast<uint64_t>(Result.Rounds)));
    // A warm run's round count reflects the seeding, not the program's
    // cold cost.
    Result.CacheRounds = WarmStarted && Result.V == Verdict::Correct
                             ? CachedRounds
                             : static_cast<uint64_t>(Result.Rounds);
    if (Config.CacheWriteBack)
      storeProof(Config.CacheDir, FP,
                 Config.Order ? Config.Order->name() : "none", Result, Stats);
  }
  // Interning telemetry (docs/PERF.md): hits/misses aggregate the three
  // persistent per-verifier tables; the sleep-set counters additionally
  // drive the bench harness's hit-rate and representation reporting. All of
  // these merge additively through the portfolio statistics hub.
  Stats.add("intern_hits",
            static_cast<int64_t>(SleepIntern.hits() + StateIntern.hits() +
                                 Proof.setInternHits()));
  Stats.add("intern_misses",
            static_cast<int64_t>(SleepIntern.misses() + StateIntern.misses() +
                                 Proof.setInternMisses()));
  Stats.setMax("peak_interned_sets", static_cast<int64_t>(SleepIntern.size()));
  Stats.add("sleepset_intern_hits", static_cast<int64_t>(SleepIntern.hits()));
  Stats.add("sleepset_intern_misses",
            static_cast<int64_t>(SleepIntern.misses()));
  Stats.add(SleepIntern.inlineWords() ? "sleepset_inline_sets"
                                      : "sleepset_spill_sets",
            static_cast<int64_t>(SleepIntern.size()));
  Stats.add("hoare_queries",
            static_cast<int64_t>(Proof.numHoareQueries()));
  Stats.add("hoare_frame", static_cast<int64_t>(Proof.numHoareFrame()));
  Stats.add("hoare_model_refuted",
            static_cast<int64_t>(Proof.numHoareModelRefuted()));
  Stats.add("smt_queries", static_cast<int64_t>(QE.numQueries()));
  Stats.add("smt_cache_hits", static_cast<int64_t>(QE.numCacheHits()));
  Stats.add("smt_sessions", static_cast<int64_t>(QE.numSessions()));
  Stats.add("smt_assumption_solves",
            static_cast<int64_t>(QE.numAssumptionSolves()));
  Stats.add("smt_clauses_retained",
            static_cast<int64_t>(QE.numClausesRetained()));
  Stats.add("smt_theory_rounds", static_cast<int64_t>(QE.numTheoryRounds()));
  Stats.add("smt_solver_us", static_cast<int64_t>(QE.solverMicros()));
  Stats.add("semantic_commut_checks",
            static_cast<int64_t>(Commut.numSemanticChecks()));
  // Export the static tier's internal counters as statistics entries so
  // they merge through per-worker sinks into the portfolio hub (the
  // tier object itself dies with this verifier).
  if (const analysis::StaticCommutativity *Tier = Commut.staticTier()) {
    Stats.add("static_tier_queries", static_cast<int64_t>(Tier->numQueries()));
    Stats.add("static_tier_proofs", static_cast<int64_t>(Tier->numProofs()));
    Stats.add("octagon_tier_queries",
              static_cast<int64_t>(Tier->numOctQueries()));
    Stats.add("octagon_tier_proofs",
              static_cast<int64_t>(Tier->numOctProofs()));
    Stats.add("karr_tier_queries",
              static_cast<int64_t>(Tier->numKarrQueries()));
    Stats.add("karr_tier_proofs",
              static_cast<int64_t>(Tier->numKarrProofs()));
  }
  Result.Stats = Stats;
  return Result;
}

Verifier::Verifier(const prog::ConcurrentProgram &P,
                   const VerifierConfig &Config)
    : ImplPtr(std::make_unique<Impl>(P, Config)) {}

Verifier::~Verifier() = default;

VerificationResult Verifier::run() { return ImplPtr->run(); }

size_t Verifier::Impl::minimizeProof() {
  // Greedy deletion: drop each predicate and keep the drop if the proof
  // check still succeeds. The useless-state cache was built against the
  // full pool (weaker pools may reach more states), so disable it here.
  bool SavedCacheFlag = Config.UselessStateCache;
  Config.UselessStateCache = false;
  UselessTable SavedTable = std::move(Useless);
  Useless = {};

  std::vector<bool> Mask(Proof.numPredicates(), true);
  for (uint32_t Id = 1; Id < Proof.numPredicates(); ++Id) {
    if (stopRequested())
      break;
    Mask[Id] = false;
    Proof.setEnabledMask(Mask);
    RoundResult RR = checkProofRound();
    if (RR.K != RoundResult::Kind::ProofValid)
      Mask[Id] = true; // needed (or budget pressure): keep it
  }
  Proof.setEnabledMask(Mask);
  size_t Minimized = Proof.numEnabled();

  Config.UselessStateCache = SavedCacheFlag;
  Useless = std::move(SavedTable);
  return Minimized;
}
