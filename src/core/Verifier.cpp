//===- core/Verifier.cpp - Trace abstraction with sequentialization -------===//

#include "core/Verifier.h"

#include "analysis/KarrProp.h"
#include "analysis/OctagonProp.h"
#include "core/Interpolation.h"
#include "persist/Fingerprint.h"
#include "persist/ProofCache.h"
#include "persist/TermIO.h"

#include "support/Bitset.h"
#include "support/InternTable.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

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

} // namespace

class Verifier::Impl {
public:
  Impl(const prog::ConcurrentProgram &P, const VerifierConfig &Config)
      : P(P), Config(Config), TM(P.termManager()), QE(TM), Fresh(TM),
        Commut(P, QE, Config.CommutMode), Proof(TM, QE, Fresh, P),
        SleepIntern(P.numLetters()) {
    if (!Config.StaticTier)
      Commut.disableStaticTier();
    Commut.setStatistics(&Stats);
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
  /// assertion set. Every structured component is interned to a dense id in
  /// the per-verifier tables below, so a key is four integers: hashing,
  /// comparing, and copying a DFS node is O(1) regardless of thread count,
  /// alphabet size, or proof size (the per-state constant-factor half of the
  /// paper's linear-size-reduction argument; see docs/PERF.md).
  struct Key {
    uint32_t Q = 0;                ///< Interned ProductState id.
    PreferenceOrder::Context Ctx = PreferenceOrder::InitialContext;
    SleepSetId Sleep = SleepSetInterner::EmptySetId;
    uint32_t Phi = 0;              ///< Interned PredSet id.

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

  RoundResult checkProofRound();
  void expand(const Key &Node, std::vector<std::pair<Letter, Key>> &Out);
  bool isKnownUseless(const Key &Node);
  void markUseless(const Key &Node);
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
  /// through proof minimization), so sleep sets, product states, and
  /// predicate sets recurring between rounds hash straight to their old
  /// ids — and the keys of the cross-round useless cache stay valid. Never
  /// shared across portfolio workers: each worker's verifier owns its
  /// tables, keeping the hot path lock-free (docs/RUNTIME.md).
  SleepSetInterner SleepIntern;
  InternTable<ProductState> StateIntern;
  InternTable<PredSet> PhiIntern;

  /// Cross-round useless-state cache: (Q, Ctx, Sleep) -> interned ids of
  /// assertion sets under which the node was counterexample-free.
  struct UselessKey {
    uint32_t Q;
    PreferenceOrder::Context Ctx;
    SleepSetId Sleep;
    bool operator==(const UselessKey &) const = default;
  };
  struct UselessKeyHash {
    size_t operator()(const UselessKey &K) const {
      return static_cast<size_t>(
          hashCombine(hashCombine(hashMix(K.Q), K.Ctx), K.Sleep));
    }
  };
  std::unordered_map<UselessKey, std::vector<uint32_t>, UselessKeyHash>
      UselessCache;
  static constexpr size_t MaxUselessEntriesPerNode = 8;

  /// Per-round DFS state, kept as members so refinement rounds reuse the
  /// allocations: the visited index (hashed, interning Keys to dense ids
  /// aligned with VisitStatus), the frame stack, and a pool of successor
  /// vectors recycled on frame pop.
  InternTable<Key> Visited;
  std::vector<NodeStatus> VisitStatus;
  struct Frame {
    Key Node;
    Letter InLetter = 0;
    uint32_t VisitedId = 0;
    std::vector<std::pair<Letter, Key>> Succs;
    size_t NextIndex = 0;
    bool TouchedUnknown = false;
  };
  std::vector<Frame> Stack;
  std::vector<std::vector<std::pair<Letter, Key>>> SuccPool;

  /// Config.TimeoutSeconds mapped onto the cancellation mechanism.
  runtime::CancellationToken OwnDeadline;
  Statistics Stats;
};

bool Verifier::Impl::isKnownUseless(const Key &Node) {
  if (!Config.UselessStateCache)
    return false;
  auto It = UselessCache.find({Node.Q, Node.Ctx, Node.Sleep});
  if (It == UselessCache.end())
    return false;
  const PredSet &Phi = PhiIntern[Node.Phi];
  for (uint32_t Recorded : It->second)
    if (Recorded == Node.Phi || isSubset(PhiIntern[Recorded], Phi)) {
      Stats.add("useless_cache_hits");
      return true;
    }
  return false;
}

void Verifier::Impl::markUseless(const Key &Node) {
  if (!Config.UselessStateCache)
    return;
  auto &Entries = UselessCache[{Node.Q, Node.Ctx, Node.Sleep}];
  const PredSet &Phi = PhiIntern[Node.Phi];
  for (uint32_t Recorded : Entries)
    if (Recorded == Node.Phi || isSubset(PhiIntern[Recorded], Phi))
      return; // already subsumed
  if (Entries.size() < MaxUselessEntriesPerNode)
    Entries.push_back(Node.Phi);
}

void Verifier::Impl::expand(const Key &Node,
                            std::vector<std::pair<Letter, Key>> &Out) {
  Out.clear();
  if (Proof.isFalse(PhiIntern[Node.Phi]))
    return; // covered by the proof

  // References into the intern arenas are refetched after any intern()
  // below: interning a successor component may grow an arena and move it.
  auto Successors = P.successors(StateIntern[Node.Q]); // empty at errors
  if (Successors.empty())
    return;

  const Bitset *Membrane = nullptr;
  if (Persistent)
    Membrane = &Persistent->compute(StateIntern[Node.Q], Node.Ctx);

  std::vector<Letter> Enabled;
  Enabled.reserve(Successors.size());
  for (const auto &[L, NextQ] : Successors) {
    (void)NextQ;
    Enabled.push_back(L);
  }

  Term Phi =
      Config.ProofSensitive ? Proof.conjunction(PhiIntern[Node.Phi]) : nullptr;

  Out.reserve(Successors.size());
  for (auto &[L, NextQ] : Successors) {
    if (Config.UseSleepSets && SleepIntern.test(Node.Sleep, L)) {
      Stats.add("sleep_pruned");
      continue;
    }
    if (Membrane && !Membrane->test(L)) {
      Stats.add("persistent_pruned");
      continue;
    }
    Key Next;
    Next.Q = StateIntern.intern(NextQ);
    Next.Ctx = Config.Order ? Config.Order->advance(Node.Ctx, L)
                            : PreferenceOrder::InitialContext;
    Next.Sleep = SleepSetInterner::EmptySetId;
    if (Config.UseSleepSets) {
      SleepIntern.scratchClear();
      for (Letter B : Enabled) {
        if (B == L)
          continue;
        bool Candidate = SleepIntern.test(Node.Sleep, B) ||
                         Config.Order->less(Node.Ctx, B, L);
        if (!Candidate)
          continue;
        bool Commutes = Config.ProofSensitive
                            ? Commut.commutesUnder(Phi, L, B)
                            : Commut.commutes(L, B);
        if (Commutes)
          SleepIntern.scratchSet(B);
      }
      Next.Sleep = SleepIntern.internScratch();
    }
    Next.Phi = PhiIntern.intern(Proof.step(PhiIntern[Node.Phi], L));
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
  Init.Q = StateIntern.intern(P.initialProductState());
  Init.Ctx = PreferenceOrder::InitialContext;
  Init.Sleep = SleepSetInterner::EmptySetId;
  Init.Phi = PhiIntern.intern(Proof.initialSet());

  auto Push = [&](const Key &Node, Letter InLetter) -> bool {
    // Returns false if the node produced a counterexample.
    if (P.isErrorState(StateIntern[Node.Q]) &&
        !Proof.isFalse(PhiIntern[Node.Phi]))
      return false;
    if (CheckPost && P.isAllExitState(StateIntern[Node.Q]) &&
        !Proof.isFalse(PhiIntern[Node.Phi]) &&
        !QE.implies(Proof.conjunction(PhiIntern[Node.Phi]), Post)) {
      ExitCtex = true;
      return false;
    }
    if (isKnownUseless(Node)) {
      // Counts as a useless (done) node: nothing to propagate.
      return true;
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
    bool Useless = !Top.TouchedUnknown;
    VisitStatus[Top.VisitedId] =
        Useless ? NodeStatus::DoneUseless : NodeStatus::DoneUnknown;
    if (Useless)
      markUseless(Top.Node);
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
      Result.V = Verdict::Unknown;
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
      Result.V = Verdict::Unknown;
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
                                 PhiIntern.hits()));
  Stats.add("intern_misses",
            static_cast<int64_t>(SleepIntern.misses() + StateIntern.misses() +
                                 PhiIntern.misses()));
  Stats.setMax("peak_interned_sets", static_cast<int64_t>(SleepIntern.size()));
  Stats.add("sleepset_intern_hits", static_cast<int64_t>(SleepIntern.hits()));
  Stats.add("sleepset_intern_misses",
            static_cast<int64_t>(SleepIntern.misses()));
  Stats.add(SleepIntern.inlineWords() ? "sleepset_inline_sets"
                                      : "sleepset_spill_sets",
            static_cast<int64_t>(SleepIntern.size()));
  Stats.add("hoare_queries",
            static_cast<int64_t>(Proof.numHoareQueries()));
  Stats.add("smt_queries", static_cast<int64_t>(QE.numQueries()));
  Stats.add("smt_cache_hits", static_cast<int64_t>(QE.numCacheHits()));
  Stats.add("smt_sessions", static_cast<int64_t>(QE.numSessions()));
  Stats.add("smt_assumption_solves",
            static_cast<int64_t>(QE.numAssumptionSolves()));
  Stats.add("smt_clauses_retained",
            static_cast<int64_t>(QE.numClausesRetained()));
  Stats.add("smt_theory_rounds", static_cast<int64_t>(QE.numTheoryRounds()));
  Stats.add("smt_tableau_warm_pivots",
            static_cast<int64_t>(QE.numWarmPivots()));
  Stats.add("smt_tableau_warm_starts",
            static_cast<int64_t>(QE.numWarmStarts()));
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
  auto SavedCache = std::move(UselessCache);
  UselessCache.clear();

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
  UselessCache = std::move(SavedCache);
  return Minimized;
}
