//===- runtime/ParallelPortfolio.h - Racing portfolio scheduler -----------===//
///
/// \file
/// The genuinely parallel preference-order portfolio (PAPER.md Sec. 8:
/// "terminates as soon as the analysis for any preference order
/// terminates"), replacing the sequential as-if-parallel emulation of
/// core/Portfolio.h for actual execution. One verification task per order
/// runs on a fixed-size Executor; the first decisive verdict cancels the
/// remaining tasks through a shared CancellationToken; losers stop within
/// one poll interval (docs/RUNTIME.md quantifies the latency).
///
/// Isolation: every worker builds its *own* program from source with its
/// own TermManager — term construction mutates the manager, so racing
/// verifiers must not share one — and prepares it with
/// core::prepareProgram under the base config, so every worker verifies
/// the identical program. Orders are reconstructed per worker from the
/// config's RandSeedBase (support/Random.h has no shared state), so all
/// workers see the identical portfolio.
///
/// Sharing: the base config's CacheDir (proof cache, docs/PERSIST.md) and
/// SharedCommut (commutativity oracle, reduction/CommutOracle.h) reach
/// every worker unchanged. All workers share one proof store: each loads
/// at construction and the decisive finishers write back, last-writer-wins
/// through atomic renames. One oracle is sound to share because all
/// workers build the identical program and the canonical key fully
/// determines a query's answer; the per-worker hit/miss/store traffic
/// lands in the sinks as commut_shared_hits / _misses / _stores.
///
/// Determinism: all orders run sound analyses of the same program, so
/// every decisive verdict agrees; the *verdict* is therefore independent
/// of thread scheduling. The reported winning order is tie-broken by fixed
/// order priority (seq < lockstep < rand(k)) among the orders that
/// finished decisively, and with Jobs=1 the race degenerates to exactly
/// the sequential priority-order sweep.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_RUNTIME_PARALLELPORTFOLIO_H
#define SEQVER_RUNTIME_PARALLELPORTFOLIO_H

#include "core/Portfolio.h"
#include "support/Statistics.h"

#include <string>
#include <vector>

namespace seqver {
namespace runtime {

struct ParallelPortfolioResult {
  /// Winner's result (deterministic tie-break; see file comment). Its
  /// Seconds is the winner's own run time — the as-if-parallel aggregate.
  core::VerificationResult Best;
  std::string BestOrder;
  /// All orders in priority order, including cancelled losers.
  std::vector<core::PortfolioEntry> Entries;
  /// Real wall-clock of the whole race (launch to last join).
  double WallSeconds = 0;
  /// Worker threads actually used.
  unsigned Jobs = 0;
  /// Per-worker statistics sinks merged after the join, plus scheduler
  /// counters (portfolio_cancelled_orders, portfolio_decisive_orders) and
  /// the preparation counters of the program (core::PrepareStats::record),
  /// recorded once for the race: every worker prepares the same program.
  Statistics Merged;

  bool decisive() const { return core::isDecisive(Best.V); }
  /// Sum of per-order run times: the cost the race actually paid
  /// (cancelled orders contribute only their partial time).
  double sumSeconds() const;
};

/// Races the full portfolio over Source on Jobs worker threads (0 =
/// std::thread::hardware_concurrency()). Base supplies everything but the
/// order (Order is overridden per task; Cancel is overridden with the
/// race's shared token). Base.TimeoutSeconds, when positive, is armed as a
/// real deadline for the race as a whole and for each task.
ParallelPortfolioResult
runPortfolioParallel(const std::string &Source,
                     const core::VerifierConfig &Base, unsigned Jobs = 0);

} // namespace runtime
} // namespace seqver

#endif // SEQVER_RUNTIME_PARALLELPORTFOLIO_H
