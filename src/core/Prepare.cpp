//===- core/Prepare.cpp - The one program-preparation step ----------------===//

#include "core/Prepare.h"

using namespace seqver;
using namespace seqver::core;

void PrepareStats::record(Statistics &Sink) const {
  if (Pruned) {
    Sink.add("edges_pruned", static_cast<int64_t>(Prune.Removed));
    auto KarrIt = Prune.BySource.find("karr");
    if (KarrIt != Prune.BySource.end())
      Sink.add("karr_pruned", static_cast<int64_t>(KarrIt->second));
  }
  if (Fused) {
    Sink.add("fusion_fused_edges", static_cast<int64_t>(Fusion.FusedEdges));
    Sink.add("fusion_transactions",
             static_cast<int64_t>(Fusion.Transactions));
    Sink.add("fusion_alphabet_before",
             static_cast<int64_t>(Fusion.AlphabetBefore));
    Sink.add("fusion_alphabet_after",
             static_cast<int64_t>(Fusion.AlphabetAfter));
    Sink.add("fusion_states_before",
             static_cast<int64_t>(Fusion.StatesBefore));
    Sink.add("fusion_states_after",
             static_cast<int64_t>(Fusion.StatesAfter));
  }
}

analysis::PrunePreset
seqver::core::prunePreset(const VerifierConfig &Config) {
  if (!Config.OctagonTier)
    return analysis::PrunePreset::IntervalOnly;
  if (!Config.KarrTier)
    return analysis::PrunePreset::WithOctagons;
  return analysis::PrunePreset::Full;
}

PrepareStats seqver::core::prepareProgram(prog::ConcurrentProgram &P,
                                          const VerifierConfig &Config) {
  PrepareStats Out;
  if (Config.PruneDeadEdges) {
    analysis::pruneDeadEdges(P, prunePreset(Config), &Out.Prune);
    Out.Pruned = true;
  }
  if (Config.FuseTransactions) {
    Out.Fusion = analysis::fuseTransactions(P);
    Out.Fused = true;
  }
  return Out;
}

bool seqver::core::samePreparation(const VerifierConfig &A,
                                   const VerifierConfig &B) {
  return A.PruneDeadEdges == B.PruneDeadEdges &&
         (!A.PruneDeadEdges || prunePreset(A) == prunePreset(B)) &&
         A.FuseTransactions == B.FuseTransactions;
}
