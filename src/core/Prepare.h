//===- core/Prepare.h - The one program-preparation step ------------------===//
///
/// \file
/// Every seam that owns a program — the CLI, the parallel portfolio's
/// workers, the differential check matrix, the benches — prepares it here
/// before the preference orders are built. Preparation is decided by the
/// VerifierConfig alone, so a config describes the whole pipeline run and
/// two seams given the same config verify the same program:
///
///   1. dead-edge pruning (VerifierConfig::PruneDeadEdges), with the
///      invariant domains the static tier is configured to use
///      (prunePreset);
///   2. Lipton transaction fusion (VerifierConfig::FuseTransactions), on
///      the pruned program so the mover analysis sees the dead edges gone.
///
/// The Verifier itself never prepares: it runs whatever program it is
/// handed.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_CORE_PREPARE_H
#define SEQVER_CORE_PREPARE_H

#include "analysis/Analysis.h"
#include "analysis/Fusion.h"
#include "core/Verifier.h"

namespace seqver {
namespace core {

/// What preparation did to one program.
struct PrepareStats {
  bool Pruned = false; ///< the prune step ran
  bool Fused = false;  ///< the fusion step ran
  analysis::PruneStats Prune;
  analysis::FusionStats Fusion;

  /// Records the counters of the steps that ran into Sink: edges_pruned
  /// and karr_pruned, then the fusion_* counters. Call once per prepared
  /// program, so the counters mean the same on every path (a portfolio of
  /// five orders over one program reports them once, not five times).
  void record(Statistics &Sink) const;
};

/// The invariant domains a prune under Config consults: the ones its
/// static tier uses (OctagonTier, KarrTier).
analysis::PrunePreset prunePreset(const VerifierConfig &Config);

/// Prunes and fuses P in place as Config asks. Must run before preference
/// orders are built over P: they hold per-letter vectors sized at
/// construction, and fusion appends letters.
PrepareStats prepareProgram(prog::ConcurrentProgram &P,
                            const VerifierConfig &Config);

/// True iff prepareProgram does the same to a program under A and under B,
/// so one prepared copy serves both. Kept beside prepareProgram: a new
/// preparation step must extend both.
bool samePreparation(const VerifierConfig &A, const VerifierConfig &B);

} // namespace core
} // namespace seqver

#endif // SEQVER_CORE_PREPARE_H
