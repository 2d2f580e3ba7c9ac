//===- runtime/ParallelPortfolio.cpp - Racing portfolio scheduler ---------===//

#include "runtime/ParallelPortfolio.h"

#include "core/Prepare.h"
#include "program/CfgBuilder.h"
#include "runtime/Cancellation.h"
#include "runtime/Executor.h"
#include "runtime/StatisticsHub.h"
#include "support/Timer.h"

#include <algorithm>
#include <future>
#include <memory>
#include <optional>

using namespace seqver;
using namespace seqver::runtime;
using seqver::core::VerificationResult;
using seqver::core::Verdict;
using seqver::core::VerifierConfig;

double ParallelPortfolioResult::sumSeconds() const {
  double Sum = 0;
  for (const core::PortfolioEntry &E : Entries)
    Sum += E.Result.Seconds;
  return Sum;
}

namespace {

/// One racing task: rebuild and prepare the program, select the OrderIdx-th
/// portfolio order, verify under the shared token. Never throws past the
/// future boundary by construction (build errors become Unknown, with Prep
/// left empty).
VerificationResult verifyOneOrder(const std::string &Source,
                                  const VerifierConfig &Base,
                                  size_t OrderIdx,
                                  const CancellationToken *Race,
                                  Statistics *Sink,
                                  std::optional<core::PrepareStats> &Prep) {
  smt::TermManager TM;
  prog::BuildResult Build = prog::buildFromSource(Source, TM);
  if (!Build.ok()) {
    VerificationResult R;
    R.V = Verdict::Unknown;
    return R;
  }
  Prep = core::prepareProgram(*Build.Program, Base);

  auto Orders = red::makePortfolioOrders(*Build.Program, Base.RandOrders,
                                         Base.RandSeedBase);
  VerifierConfig Config = Base;
  Config.Order = Orders[OrderIdx].get();
  Config.Cancel = Race;
  core::Verifier V(*Build.Program, Config);
  VerificationResult R = V.run();
  // Each worker owns its sink (registered before launch, see the hub's
  // contract); merging here is single-writer.
  if (Sink)
    Sink->mergeFrom(R.Stats);
  return R;
}

} // namespace

ParallelPortfolioResult seqver::runtime::runPortfolioParallel(
    const std::string &Source, const VerifierConfig &Base, unsigned Jobs) {
  ParallelPortfolioResult Out;
  Timer Wall;

  // Order names are a pure function of the config — no program needed.
  std::vector<std::string> Names = {"seq", "lockstep"};
  for (int K = 1; K <= Base.RandOrders; ++K)
    Names.push_back("rand(" + std::to_string(Base.RandSeedBase +
                                             static_cast<uint64_t>(K)) +
                    ")");
  const size_t NumOrders = Names.size();

  auto Race = std::make_shared<CancellationToken>();
  if (Base.TimeoutSeconds > 0)
    Race->armDeadline(Base.TimeoutSeconds);

  StatisticsHub Hub;
  std::vector<Statistics *> Sinks;
  Sinks.reserve(NumOrders);
  for (size_t I = 0; I < NumOrders; ++I)
    Sinks.push_back(&Hub.registerSink());
  Hub.start(); // seal registration before any worker can run

  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  Jobs = std::min<unsigned>(Jobs, static_cast<unsigned>(NumOrders));

  std::vector<std::future<VerificationResult>> Futures;
  Futures.reserve(NumOrders);
  // One slot per task, written only by that task and read after the join.
  std::vector<std::optional<core::PrepareStats>> Preps(NumOrders);
  {
    Executor Pool(Jobs);
    for (size_t I = 0; I < NumOrders; ++I) {
      Futures.push_back(Pool.submit(
          [&Source, &Base, I, Race, Sink = Sinks[I],
           &Prep = Preps[I]]() -> VerificationResult {
            VerificationResult R =
                verifyOneOrder(Source, Base, I, Race.get(), Sink, Prep);
            // First decisive verdict stops the race; calling this for
            // every decisive finisher is idempotent.
            if (core::isDecisive(R.V))
              Race->requestCancel();
            return R;
          }));
    }
    // Leaving the scope drains the queue and joins all workers.
  }

  Out.Jobs = Jobs;
  Out.Entries.reserve(NumOrders);
  for (size_t I = 0; I < NumOrders; ++I) {
    core::PortfolioEntry Entry;
    Entry.OrderName = Names[I];
    try {
      Entry.Result = Futures[I].get();
    } catch (const std::exception &) {
      // A task that died (e.g. bad_alloc) must not sink the whole race;
      // its entry stays Unknown and the other orders still count.
      Entry.Result.V = Verdict::Unknown;
    }
    Out.Entries.push_back(std::move(Entry));
  }
  Out.WallSeconds = Wall.seconds();

  // Deterministic winner selection: lowest-priority-index decisive order.
  // All decisive verdicts agree (soundness), so the verdict itself never
  // depends on scheduling; only the reported order label is tie-broken.
  int64_t DecisiveCount = 0, CancelledCount = 0;
  size_t WinnerIdx = NumOrders;
  for (size_t I = 0; I < NumOrders; ++I) {
    Verdict V = Out.Entries[I].Result.V;
    if (core::isDecisive(V)) {
      ++DecisiveCount;
      if (WinnerIdx == NumOrders)
        WinnerIdx = I;
    } else if (V == Verdict::Cancelled) {
      ++CancelledCount;
    }
  }
  if (WinnerIdx == NumOrders) {
    // Nothing decisive: surface the most informative loser — Unknown (a
    // solver give-up is meaningful) over Timeout over Cancelled.
    auto Score = [](Verdict V) {
      return V == Verdict::Unknown ? 0 : V == Verdict::Timeout ? 1 : 2;
    };
    WinnerIdx = 0;
    for (size_t I = 1; I < NumOrders; ++I)
      if (Score(Out.Entries[I].Result.V) <
          Score(Out.Entries[WinnerIdx].Result.V))
        WinnerIdx = I;
  }
  Out.Best = Out.Entries[WinnerIdx].Result;
  Out.BestOrder = Out.Entries[WinnerIdx].OrderName;

  Out.Merged = Hub.merged();
  Out.Merged.add("portfolio_decisive_orders", DecisiveCount);
  Out.Merged.add("portfolio_cancelled_orders", CancelledCount);
  for (const std::optional<core::PrepareStats> &Prep : Preps) {
    if (Prep) {
      Prep->record(Out.Merged);
      break;
    }
  }
  return Out;
}
