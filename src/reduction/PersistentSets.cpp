//===- reduction/PersistentSets.cpp - Algorithm 1 (Sec. 7.1) --------------===//

#include "reduction/PersistentSets.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>

using namespace seqver;
using namespace seqver::red;
using seqver::automata::Letter;
using seqver::prog::Location;
using seqver::prog::ProductState;
using seqver::prog::ThreadCfg;

PersistentSetComputer::PersistentSetComputer(
    const prog::ConcurrentProgram &P, CommutativityChecker &Commut,
    const PreferenceOrder *Order,
    const analysis::ConflictRelation *StaticIndep)
    : P(P), Commut(Commut), Order(Order), StaticIndep(StaticIndep),
      Membranes(P.numLetters()) {
  HasAssert.resize(static_cast<size_t>(P.numThreads()));
  for (int T = 0; T < P.numThreads(); ++T)
    HasAssert[static_cast<size_t>(T)] = P.thread(T).containsAssert();
  precomputeConflicts();
}

void PersistentSetComputer::precomputeConflicts() {
  int N = P.numThreads();

  // Per thread, per location: letters on edges of locations reachable from
  // it (within the thread), i.e. the actions the thread may still perform.
  std::vector<std::vector<Bitset>> ReachableLetters(
      static_cast<size_t>(N));
  for (int T = 0; T < N; ++T) {
    const ThreadCfg &Cfg = P.thread(T);
    auto &PerLoc = ReachableLetters[static_cast<size_t>(T)];
    PerLoc.assign(Cfg.numLocations(), Bitset(P.numLetters()));
    for (Location Start = 0; Start < Cfg.numLocations(); ++Start) {
      std::vector<bool> Seen(Cfg.numLocations(), false);
      std::deque<Location> Worklist = {Start};
      Seen[Start] = true;
      while (!Worklist.empty()) {
        Location Current = Worklist.front();
        Worklist.pop_front();
        for (const auto &[L, To] : Cfg.Edges[Current]) {
          PerLoc[Start].set(L);
          if (!Seen[To]) {
            Seen[To] = true;
            Worklist.push_back(To);
          }
        }
      }
    }
  }

  // Conflict relation l_i ~~> l_j: an action enabled at l_i does not commute
  // with an action still performable from l_j.
  Conflicts.assign(static_cast<size_t>(N), {});
  for (int I = 0; I < N; ++I) {
    const ThreadCfg &CfgI = P.thread(I);
    Conflicts[static_cast<size_t>(I)].assign(CfgI.numLocations(), {});
    for (Location LI = 0; LI < CfgI.numLocations(); ++LI) {
      auto &Row = Conflicts[static_cast<size_t>(I)][LI];
      Row.assign(static_cast<size_t>(N), Bitset());
      for (int J = 0; J < N; ++J) {
        if (J == I)
          continue;
        const ThreadCfg &CfgJ = P.thread(J);
        Bitset Flags(CfgJ.numLocations());
        for (Location LJ = 0; LJ < CfgJ.numLocations(); ++LJ) {
          bool Conflict = false;
          for (const auto &[A, ToA] : CfgI.Edges[LI]) {
            (void)ToA;
            ReachableLetters[static_cast<size_t>(J)][LJ].forEach(
                [&](size_t B) {
                  if (Conflict)
                    return;
                  // Statically proven independent pairs need no query.
                  if (StaticIndep &&
                      StaticIndep->independent(A, static_cast<Letter>(B)))
                    return;
                  if (!Commut.commutes(A, static_cast<Letter>(B)))
                    Conflict = true;
                });
            if (Conflict)
              break;
          }
          if (Conflict)
            Flags.set(LJ);
        }
        Row[static_cast<size_t>(J)] = std::move(Flags);
      }
    }
  }
}

bool PersistentSetComputer::locationsConflict(int ThreadI, Location LocI,
                                              int ThreadJ,
                                              Location LocJ) const {
  assert(ThreadI != ThreadJ && "conflict relation is cross-thread");
  return Conflicts[static_cast<size_t>(ThreadI)][LocI]
                  [static_cast<size_t>(ThreadJ)]
                      .test(LocJ);
}

SleepSetId PersistentSetComputer::compute(uint32_t QId, const ProductState &S,
                                          PreferenceOrder::Context Ctx) {
  MemoKey Key{QId, (Order && Order->isPositional())
                       ? Ctx
                       : PreferenceOrder::InitialContext};
  bool Inserted = false;
  uint32_t KeyId = Memo.intern(Key, &Inserted);
  if (!Inserted)
    return MembraneOf[KeyId];

  int N = P.numThreads();
  std::vector<std::vector<Letter>> Enabled(static_cast<size_t>(N));
  std::vector<bool> Active(static_cast<size_t>(N), false);
  for (int T = 0; T < N; ++T) {
    Enabled[static_cast<size_t>(T)] = P.threadEnabled(T, S);
    Active[static_cast<size_t>(T)] =
        !Enabled[static_cast<size_t>(T)].empty();
  }

  // Build the conflict graph over active threads: edge I -> J when thread J
  // must be included whenever I is (conflict or preference compatibility).
  std::vector<std::vector<int>> Adj(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I) {
    if (!Active[static_cast<size_t>(I)])
      continue;
    for (int J = 0; J < N; ++J) {
      if (I == J || !Active[static_cast<size_t>(J)])
        continue;
      bool Edge = locationsConflict(I, S[static_cast<size_t>(I)], J,
                                    S[static_cast<size_t>(J)]);
      if (!Edge && Order) {
        // Compatibility (Sec. 6.2): if some action of J is preferred over
        // some action of I, selecting I requires selecting J.
        for (Letter B : Enabled[static_cast<size_t>(I)]) {
          for (Letter A : Enabled[static_cast<size_t>(J)]) {
            if (Order->less(Ctx, A, B)) {
              Edge = true;
              break;
            }
          }
          if (Edge)
            break;
        }
      }
      if (Edge)
        Adj[static_cast<size_t>(I)].push_back(J);
    }
  }

  // Kosaraju SCC over the active subgraph.
  std::vector<int> FinishOrder;
  std::vector<bool> Visited(static_cast<size_t>(N), false);
  std::function<void(int)> Dfs1 = [&](int U) {
    Visited[static_cast<size_t>(U)] = true;
    for (int V : Adj[static_cast<size_t>(U)])
      if (!Visited[static_cast<size_t>(V)])
        Dfs1(V);
    FinishOrder.push_back(U);
  };
  for (int T = 0; T < N; ++T)
    if (Active[static_cast<size_t>(T)] && !Visited[static_cast<size_t>(T)])
      Dfs1(T);

  std::vector<std::vector<int>> RevAdj(static_cast<size_t>(N));
  for (int U = 0; U < N; ++U)
    for (int V : Adj[static_cast<size_t>(U)])
      RevAdj[static_cast<size_t>(V)].push_back(U);

  std::vector<int> ComponentOf(static_cast<size_t>(N), -1);
  int NumComponents = 0;
  for (auto RIt = FinishOrder.rbegin(); RIt != FinishOrder.rend(); ++RIt) {
    if (ComponentOf[static_cast<size_t>(*RIt)] != -1)
      continue;
    int Comp = NumComponents++;
    std::deque<int> Worklist = {*RIt};
    ComponentOf[static_cast<size_t>(*RIt)] = Comp;
    while (!Worklist.empty()) {
      int U = Worklist.front();
      Worklist.pop_front();
      for (int V : RevAdj[static_cast<size_t>(U)])
        if (ComponentOf[static_cast<size_t>(V)] == -1) {
          ComponentOf[static_cast<size_t>(V)] = Comp;
          Worklist.push_back(V);
        }
    }
  }

  // Topologically maximal components: no edge to another component.
  std::vector<bool> HasOutgoing(static_cast<size_t>(NumComponents), false);
  for (int U = 0; U < N; ++U)
    for (int V : Adj[static_cast<size_t>(U)])
      if (ComponentOf[static_cast<size_t>(U)] !=
          ComponentOf[static_cast<size_t>(V)])
        HasOutgoing[static_cast<size_t>(
            ComponentOf[static_cast<size_t>(U)])] = true;

  // Pick the maximal component whose enabled-action set is smallest
  // (deterministic tie-break by component id).
  int Best = -1;
  size_t BestSize = SIZE_MAX;
  for (int Comp = 0; Comp < NumComponents; ++Comp) {
    if (HasOutgoing[static_cast<size_t>(Comp)])
      continue;
    size_t Size = 0;
    for (int T = 0; T < N; ++T)
      if (ComponentOf[static_cast<size_t>(T)] == Comp)
        Size += Enabled[static_cast<size_t>(T)].size();
    if (Size < BestSize) {
      BestSize = Size;
      Best = Comp;
    }
  }

  // Selection: the chosen component plus all active assert threads, closed
  // under the graph edges.
  std::vector<bool> Selected(static_cast<size_t>(N), false);
  std::deque<int> Worklist;
  auto Select = [&](int T) {
    if (!Selected[static_cast<size_t>(T)]) {
      Selected[static_cast<size_t>(T)] = true;
      Worklist.push_back(T);
    }
  };
  for (int T = 0; T < N; ++T) {
    if (!Active[static_cast<size_t>(T)])
      continue;
    if (Best != -1 && ComponentOf[static_cast<size_t>(T)] == Best)
      Select(T);
    if (HasAssert[static_cast<size_t>(T)])
      Select(T);
  }
  while (!Worklist.empty()) {
    int U = Worklist.front();
    Worklist.pop_front();
    for (int V : Adj[static_cast<size_t>(U)])
      Select(V);
  }

  Membranes.scratchClear();
  for (int T = 0; T < N; ++T)
    if (Selected[static_cast<size_t>(T)])
      for (Letter L : Enabled[static_cast<size_t>(T)])
        Membranes.scratchSet(L);
  MembraneOf.push_back(Membranes.internScratch());
  return MembraneOf.back();
}
