//===- core/Portfolio.h - Preference-order portfolio (Sec. 8) -------------===//
///
/// \file
/// The evaluation's portfolio aggregation: GemCutter runs one verifier per
/// preference order (seq, lockstep, rand(1..3)) and "terminates as soon as
/// the analysis for any preference order terminates". We emulate the
/// parallel portfolio sequentially and report the minimum time among
/// successful orders (as-if-parallel; see EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_CORE_PORTFOLIO_H
#define SEQVER_CORE_PORTFOLIO_H

#include "core/Verifier.h"
#include "reduction/PreferenceOrder.h"

#include <memory>
#include <string>
#include <vector>

namespace seqver {
namespace core {

/// Result of one order within the portfolio.
struct PortfolioEntry {
  std::string OrderName;
  VerificationResult Result;
};

struct PortfolioResult {
  /// The as-if-parallel aggregate: verdict of the fastest decisive order.
  VerificationResult Best;
  std::string BestOrder;
  std::vector<PortfolioEntry> Entries;

  bool decisive() const { return isDecisive(Best.V); }
};

/// Runs the full portfolio (all orders) on P. Template parameters of each
/// run are taken from Base (Order is overridden per entry).
PortfolioResult runPortfolio(const prog::ConcurrentProgram &P,
                             const VerifierConfig &Base);

/// Runs a single order by name ("seq", "lockstep", "rand(1)", ...); returns
/// the verification result. Order name "baseline" runs without reduction.
/// A name no order carries yields Verdict::Unknown with an `unknown_order`
/// statistic.
VerificationResult runSingleOrder(const prog::ConcurrentProgram &P,
                                  const VerifierConfig &Base,
                                  const std::string &OrderName);

/// Extension beyond the paper (its Limitations section asks for dynamic
/// adjustment of the preference order based on partial verification
/// efforts): an iterative-deepening scheduler over the portfolio orders.
/// Every order gets a small time budget; undecided orders are retried with
/// doubled budgets until one is decisive or TotalTimeout expires. On a
/// single core this bounds the total work at a small multiple of the best
/// order's time, without knowing the best order in advance.
///
/// The reported Seconds is the *cumulative* scheduler time (unlike the
/// as-if-parallel portfolio).
struct AdaptiveResult {
  VerificationResult Result;
  std::string DecidingOrder;
  int BudgetDoublings = 0;
};
AdaptiveResult runAdaptivePortfolio(const prog::ConcurrentProgram &P,
                                    const VerifierConfig &Base,
                                    double InitialBudgetSeconds = 0.25);

} // namespace core
} // namespace seqver

#endif // SEQVER_CORE_PORTFOLIO_H
