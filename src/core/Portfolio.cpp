//===- core/Portfolio.cpp - Preference-order portfolio --------------------===//

#include "core/Portfolio.h"

#include "persist/Fingerprint.h"
#include "support/Timer.h"

using namespace seqver;
using namespace seqver::core;

PortfolioResult seqver::core::runPortfolio(const prog::ConcurrentProgram &P,
                                           const VerifierConfig &Base) {
  PortfolioResult Out;
  auto Orders =
      red::makePortfolioOrders(P, Base.RandOrders, Base.RandSeedBase);

  bool HaveBest = false;
  size_t BestIndex = 0;
  for (auto &Order : Orders) {
    VerifierConfig Config = Base;
    Config.Order = Order.get();
    // Defer cache write-back to one store after the sweep: in this
    // sequential as-if-parallel emulation, order 1's write-back would
    // warm-start orders 2..n and distort their round counts.
    Config.CacheWriteBack = false;
    Verifier V(P, Config);
    VerificationResult R = V.run();
    bool Decisive = isDecisive(R.V);
    PortfolioEntry Entry;
    Entry.OrderName = Order->name();
    Entry.Result = R;

    // As-if-parallel: the portfolio's result is the fastest decisive run.
    if (Decisive && (!HaveBest || R.Seconds < Out.Best.Seconds ||
                     !isDecisive(Out.Best.V))) {
      Out.Best = R;
      Out.BestOrder = Order->name();
      BestIndex = Out.Entries.size();
      HaveBest = true;
    }
    if (!HaveBest) {
      // Keep some result around even if nothing is decisive yet.
      Out.Best = R;
      Out.BestOrder = Order->name();
      BestIndex = Out.Entries.size();
    }
    Out.Entries.push_back(std::move(Entry));
  }
  // Single deferred store of the winner's proof (last-writer-wins on the
  // shared directory). ProofAssertions are canonical printer output, so
  // they round-trip through the next run's cache load unchanged. The store
  // is counted on the winner's entry, where per-order cache traffic is
  // read, and on Best, its copy.
  if (!Base.CacheDir.empty() && Base.CacheWriteBack &&
      isDecisive(Out.Best.V)) {
    Statistics &Winner = Out.Entries[BestIndex].Result.Stats;
    storeProof(Base.CacheDir, persist::fingerprintProgram(P), Out.BestOrder,
               Out.Best, Winner);
    Out.Best.Stats = Winner;
  }
  return Out;
}

VerificationResult
seqver::core::runSingleOrder(const prog::ConcurrentProgram &P,
                             const VerifierConfig &Base,
                             const std::string &OrderName) {
  if (OrderName == "baseline") {
    VerifierConfig Config = Base;
    Config.UseSleepSets = false;
    Config.UsePersistentSets = false;
    Config.ProofSensitive = false;
    Config.Order = nullptr;
    Verifier V(P, Config);
    return V.run();
  }
  auto Orders =
      red::makePortfolioOrders(P, Base.RandOrders, Base.RandSeedBase);
  for (auto &Order : Orders) {
    if (Order->name() != OrderName)
      continue;
    VerifierConfig Config = Base;
    Config.Order = Order.get();
    Verifier V(P, Config);
    return V.run();
  }
  // No portfolio order carries this name: undecided, never an abort.
  VerificationResult Unknown;
  Unknown.V = Verdict::Unknown;
  Unknown.Stats.add("unknown_order");
  return Unknown;
}

AdaptiveResult
seqver::core::runAdaptivePortfolio(const prog::ConcurrentProgram &P,
                                   const VerifierConfig &Base,
                                   double InitialBudgetSeconds) {
  AdaptiveResult Out;
  auto Orders =
      red::makePortfolioOrders(P, Base.RandOrders, Base.RandSeedBase);
  Timer Total;
  double Budget = InitialBudgetSeconds;

  for (int Doubling = 0;; ++Doubling) {
    for (auto &Order : Orders) {
      if (Base.TimeoutSeconds > 0 &&
          Total.seconds() >= Base.TimeoutSeconds) {
        Out.Result.V = Verdict::Timeout;
        Out.Result.Seconds = Total.seconds();
        Out.BudgetDoublings = Doubling;
        return Out;
      }
      VerifierConfig Config = Base;
      Config.Order = Order.get();
      Config.TimeoutSeconds = Budget;
      if (Base.TimeoutSeconds > 0)
        Config.TimeoutSeconds =
            std::min(Budget, Base.TimeoutSeconds - Total.seconds());
      Verifier V(P, Config);
      VerificationResult R = V.run();
      if (isDecisive(R.V)) {
        Out.Result = std::move(R);
        Out.Result.Seconds = Total.seconds();
        Out.DecidingOrder = Order->name();
        Out.BudgetDoublings = Doubling;
        return Out;
      }
      if (R.V == Verdict::Cancelled) {
        // The scheduler itself was cancelled from outside: stop retrying.
        Out.Result = std::move(R);
        Out.Result.Seconds = Total.seconds();
        Out.BudgetDoublings = Doubling;
        return Out;
      }
      if (R.V == Verdict::Unknown) {
        // A solver give-up will not improve with more time on this order;
        // remember it but keep trying the others.
        Out.Result = std::move(R);
        Out.DecidingOrder.clear();
      }
    }
    Budget *= 2;
  }
}
