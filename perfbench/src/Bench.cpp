//===- Bench.cpp - End-to-end benchmark of seqver -------------------------===//

#include "Bench.h"

#include "Kernel.h"

#include "analysis/Analysis.h"
#include "analysis/KarrProp.h"
#include "analysis/OctagonProp.h"
#include "core/Verifier.h"
#include "lang/Parser.h"
#include "persist/Fingerprint.h"
#include "persist/ProofCache.h"
#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "reduction/CommutOracle.h"
#include "reduction/PreferenceOrder.h"
#include "smt/Evaluator.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <thread>
#include <utility>

using namespace perfbench;
using namespace seqver;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// Verifier work between two kernel samples stays below about this much.
constexpr double SampleEverySeconds = 0.5;
/// A run stops starting requests after this long, so it exits well within
/// 180 s even if a change makes the verifier many times slower; a run cut
/// this way fails.
constexpr double HardCapSeconds = 150;
/// Per-verifier deadline; every instance decides with at least 3x
/// headroom under it.
constexpr double RequestDeadlineSeconds = 20;
/// Warm-restart set-up passes: one cold, one warm.
constexpr int PrefillPasses = 2;

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

using workloads::WorkloadInstance;

std::vector<WorkloadInstance> refinementInstances() {
  constexpr int N = 10;
  std::vector<WorkloadInstance> Out;
  for (bool Bug : {false, true}) {
    std::string Suffix = Bug ? "_bug_10" : "_10";
    Out.push_back({"loop_sum" + Suffix, workloads::loopSumSource(N, Bug),
                   !Bug, "loop_sum"});
    Out.push_back({"affine_sum" + Suffix, workloads::affineSumSource(N, Bug),
                   !Bug, "affine_sum"});
    Out.push_back({"stride_pair" + Suffix,
                   workloads::stridePairSource(N, Bug), !Bug, "stride_pair"});
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Records one span around Fn's call and adds its duration to *Acc (when
/// non-null); returns Fn's result.
template <typename Fn>
auto timed(Tracer *T, const char *Name, double *Acc, Fn &&F) {
  int Index = T ? T->begin(Name) : -1;
  Timer Clock;
  struct Finish {
    Tracer *T;
    int Index;
    Timer &Clock;
    double *Acc;
    ~Finish() {
      if (Acc)
        *Acc += Clock.seconds();
      if (T)
        T->end(Index);
    }
  } Done{T, Index, Clock, Acc};
  return F();
}

/// Returns freed memory to the system before each request and kernel
/// sample, with glibc's thresholds pinned at their defaults, so every
/// request starts from the heap state of a fresh `seqver` process. Without
/// this a request's speed depends on what the previous request left in the
/// heap, and so on the seeded order: bluetooth_bug_6 ran 8% slower after
/// bluetooth_6 than after bluetooth_7.
void settleHeap() {
#ifdef __GLIBC__
  static const bool Pinned = [] {
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    mallopt(M_TRIM_THRESHOLD, 128 * 1024);
    return true;
  }();
  (void)Pinned;
  malloc_trim(0);
#endif
}

//===----------------------------------------------------------------------===//
// Output checks
//===----------------------------------------------------------------------===//

/// True iff Witness is a feasible run of P, replayed by the concrete
/// interpreter, that ends in an assertion violation (or, for a program
/// with a postcondition, at an all-exit state violating it).
bool witnessReplays(const prog::ConcurrentProgram &P,
                    const std::vector<automata::Letter> &Witness) {
  std::optional<smt::Assignment> Store = prog::replayTrace(P, Witness);
  if (!Store)
    return false;
  prog::ProductState State = P.initialProductState();
  for (automata::Letter L : Witness) {
    int Thread = P.action(L).ThreadId;
    prog::Location &Loc = State[static_cast<size_t>(Thread)];
    for (const auto &[EdgeLetter, To] : P.thread(Thread).Edges[Loc])
      if (EdgeLetter == L) {
        Loc = To;
        break;
      }
  }
  if (P.isErrorState(State))
    return true;
  return P.hasPostCondition() && P.isAllExitState(State) &&
         !smt::evalFormula(P.postCondition(), *Store);
}

//===----------------------------------------------------------------------===//
// Serving one request
//===----------------------------------------------------------------------===//

/// The request proper; its locals are torn down before it returns, so the
/// caller's timer covers teardown too.
RequestResult serveImpl(const Workload &W, const WorkloadInstance &I,
                        const std::string &CacheDir, Tracer *T) {
  RequestResult Out;
  double *Setup = &Out.SetupSeconds;
  smt::TermManager TM;
  lang::ParseResult Parsed = timed(T, "lang.parse", Setup, [&] {
    return lang::parseProgram(I.Source, TM);
  });
  if (!Parsed.ok()) {
    Out.Verdict = "parse-error";
    return Out;
  }
  prog::BuildResult Built = timed(T, "program.build", Setup, [&] {
    return prog::buildProgram(*Parsed.Prog, TM);
  });
  if (!Built.ok()) {
    Out.Verdict = "build-error";
    return Out;
  }
  prog::ConcurrentProgram &P = *Built.Program;
  Out.Letters = P.numLetters();
  Out.PrunedEdges = timed(T, "analysis.prune", Setup, [&] {
    return analysis::pruneDeadEdges(P, analysis::PrunePreset::Full);
  });

  core::VerifierConfig Config;
  Config.TimeoutSeconds = RequestDeadlineSeconds;
  // The CLI's default --commut-cache=shared gives --order runs an
  // in-memory oracle and leaves the sequential portfolio without one.
  red::CommutOracle Oracle;
  if (W.Kind != Mode::Portfolio)
    Config.SharedCommut = &Oracle;
  if (W.Kind == Mode::WarmRestart) {
    persist::Fingerprint FP = timed(T, "persist.fingerprint", Setup, [&] {
      return persist::fingerprintProgram(P);
    });
    Out.CommutLoaded = static_cast<int64_t>(timed(
        T, "persist.bind", Setup,
        [&] { return Oracle.bindDisk(CacheDir, FP); }));
    Config.CacheDir = CacheDir;
  }

  std::vector<std::unique_ptr<red::PreferenceOrder>> Orders =
      timed(T, "reduction.orders", Setup, [&] {
        std::vector<std::unique_ptr<red::PreferenceOrder>> Made;
        if (W.Kind == Mode::Portfolio)
          return red::makePortfolioOrders(P, Config.RandOrders,
                                          Config.RandSeedBase);
        Made.push_back(std::make_unique<red::SequentialOrder>(P));
        return Made;
      });

  // As in core::runPortfolio, every order runs to its own verdict; the
  // request is decided when some order is decisive, and every decisive
  // order must agree with the ground truth.
  Out.Matches = true;
  for (const auto &Order : Orders) {
    core::VerifierConfig C = Config;
    C.Order = Order.get();
    auto V = timed(T, "core.ctor", Setup, [&] {
      return std::make_unique<core::Verifier>(P, C);
    });
    core::VerificationResult R =
        timed(T, "core.run", nullptr, [&] { return V->run(); });
    timed(T, "core.teardown", nullptr, [&] { V.reset(); });

    Out.Stats.mergeFrom(R.Stats);
    Out.PeakVisited = std::max(Out.PeakVisited, R.Stats.get("peak_visited"));
    if (!core::isDecisive(R.V)) {
      if (Out.Verdict.empty())
        Out.Verdict = core::verdictName(R.V);
      continue;
    }
    Out.Decisive = true;
    bool Right = (R.V == core::Verdict::Correct) == I.ExpectedCorrect;
    if (Out.Matches || !Right)
      Out.Verdict = core::verdictName(R.V);
    Out.Matches &= Right;
    if (R.V == core::Verdict::Incorrect)
      Out.WitnessOk &= timed(T, "check.witness", nullptr, [&] {
        return witnessReplays(P, R.Witness);
      });
  }
  if (W.Kind == Mode::WarmRestart)
    timed(T, "persist.flush", nullptr, [&] { return Oracle.flushDisk(); });
  return Out;
}

/// Side spans, outside the request and its timer: the standalone invariant
/// analyses and proof-cache load the verifier runs internally, timed on a
/// fresh copy of the request's pruned program.
void sideSpans(const Workload &W, const WorkloadInstance &I,
               const std::string &CacheDir, Tracer &T) {
  smt::TermManager TM;
  prog::BuildResult Built = prog::buildFromSource(I.Source, TM);
  if (!Built.ok())
    return;
  prog::ConcurrentProgram &P = *Built.Program;
  analysis::pruneDeadEdges(P, analysis::PrunePreset::Full);
  timed(&T, "analysis.octagon", nullptr,
        [&] { analysis::OctagonAnalysis Octagons(P); });
  timed(&T, "analysis.karr", nullptr, [&] { analysis::KarrAnalysis Karr(P); });
  if (W.Kind == Mode::WarmRestart) {
    persist::Fingerprint FP = persist::fingerprintProgram(P);
    persist::StoredProof Stored;
    timed(&T, "persist.load", nullptr, [&] {
      return persist::ProofCache(CacheDir).load(FP, Stored);
    });
  }
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// One served request as the run records it; times are raw seconds until
/// scaled by factor().
struct Record {
  int Pass = 0;
  bool Traced = false;
  bool Ok = false;
  double Seconds = 0;
  double SetupSeconds = 0;
  /// Per-layer self times by metric name (traced requests only).
  std::map<std::string, double> Times;
  /// Per-layer counts by metric name.
  std::map<std::string, double> Counts;
  double PeakVisited = 0;
  double RefBefore = 0;
  double RefAfter = 0;

  double factor() const {
    return normalise(1.0, RefBefore, RefAfter);
  }
};

double median(std::vector<double> Values) { return percentile(Values, 50); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Layer counts read from one request's verifier statistics.
std::map<std::string, double> layerCounts(const RequestResult &R) {
  auto Get = [&R](const char *Name) {
    return static_cast<double>(R.Stats.get(Name));
  };
  return {
      {"program.letters", R.Letters},
      {"analysis.pruned_edges", R.PrunedEdges},
      {"core.rounds", Get("rounds")},
      {"core.useless_cache_hits", Get("useless_cache_hits")},
      {"core.hoare_queries", Get("hoare_queries")},
      {"reduction.sleep_pruned", Get("sleep_pruned")},
      {"reduction.persistent_pruned", Get("persistent_pruned")},
      {"reduction.commut_static_queries", Get("static_tier_queries")},
      {"reduction.commut_static_proofs", Get("static_tier_proofs")},
      {"reduction.commut_semantic", Get("commut_semantic")},
      {"support.intern_hits", Get("intern_hits")},
      {"support.intern_misses", Get("intern_misses")},
      {"smt.queries", Get("smt_queries")},
      {"smt.cache_hits", Get("smt_cache_hits")},
      {"smt.assumption_solves", Get("smt_assumption_solves")},
      {"smt.theory_rounds", Get("smt_theory_rounds")},
      {"persist.commut_loaded", static_cast<double>(R.CommutLoaded)},
      {"persist.cache_hits", Get("cache_hits")},
      {"persist.cache_seeded", Get("cache_seeded")},
      {"persist.rounds_saved_warm", Get("rounds_saved_warm")},
  };
}

/// Self time of every span in [Lo, end) by "<span name>_s"; the request
/// span's own self time is the part no layer span covers.
void layerTimes(const std::vector<Span> &Spans, size_t Lo, Record &Rec) {
  std::vector<double> Self;
  for (size_t I = Lo; I < Spans.size(); ++I)
    Self.push_back(Spans[I].End - Spans[I].Start);
  for (size_t I = Lo; I < Spans.size(); ++I)
    if (Spans[I].Parent >= static_cast<int>(Lo))
      Self[static_cast<size_t>(Spans[I].Parent) - Lo] -=
          Spans[I].End - Spans[I].Start;
  for (size_t I = Lo; I < Spans.size(); ++I) {
    std::string Name = Spans[I].Name;
    if (Name == "request") {
      Rec.Times["trace.untraced_s"] += Self[I - Lo];
      Rec.Times["trace.request_s"] += Spans[I].End - Spans[I].Start;
    } else {
      Rec.Times[Name + "_s"] += Self[I - Lo];
    }
  }
}

/// Every per-layer metric of one traced pass, normalised.
std::map<std::string, double> passLayers(const std::vector<Record> &Pass) {
  std::map<std::string, double> M;
  double Peak = 0;
  for (const Record &Rec : Pass) {
    double F = Rec.factor();
    for (const auto &[Name, Value] : Rec.Times)
      M[Name] += Value * F;
    for (const auto &[Name, Value] : Rec.Counts)
      M[Name] += Value;
    Peak = std::max(Peak, Rec.PeakVisited);
  }
  M["reduction.peak_visited"] = Peak;
  M["core.search_s"] = M["core.run_s"] - M["smt.solver_s"];
  M["reduction.commut_static_ratio"] =
      ratio(M["reduction.commut_static_proofs"],
            M["reduction.commut_static_queries"]);
  M["support.intern_hit_ratio"] =
      ratio(M["support.intern_hits"],
            M["support.intern_hits"] + M["support.intern_misses"]);
  M["smt.cache_hit_ratio"] =
      ratio(M["smt.cache_hits"], M["smt.cache_hits"] + M["smt.queries"]);
  M["trace.untraced_frac"] =
      ratio(M["trace.untraced_s"], M["trace.request_s"]);
  return M;
}

/// Per-layer metrics reported by a traced run, with their units.
const std::vector<std::pair<std::string, std::string>> &layerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> List = {
      {"lang.parse_s", "s"},
      {"program.build_s", "s"},
      {"program.letters", "count"},
      {"analysis.prune_s", "s"},
      {"analysis.pruned_edges", "count"},
      {"analysis.octagon_s", "s"},
      {"analysis.karr_s", "s"},
      {"core.ctor_s", "s"},
      {"core.run_s", "s"},
      {"core.search_s", "s"},
      {"core.teardown_s", "s"},
      {"core.rounds", "count"},
      {"core.useless_cache_hits", "count"},
      {"core.hoare_queries", "count"},
      {"reduction.peak_visited", "count"},
      {"reduction.sleep_pruned", "count"},
      {"reduction.persistent_pruned", "count"},
      {"reduction.commut_static_queries", "count"},
      {"reduction.commut_static_proofs", "count"},
      {"reduction.commut_static_ratio", "ratio"},
      {"reduction.commut_semantic", "count"},
      {"support.intern_hits", "count"},
      {"support.intern_hit_ratio", "ratio"},
      {"smt.solver_s", "s"},
      {"smt.queries", "count"},
      {"smt.cache_hit_ratio", "ratio"},
      {"smt.assumption_solves", "count"},
      {"smt.theory_rounds", "count"},
      {"persist.fingerprint_s", "s"},
      {"persist.bind_s", "s"},
      {"persist.load_s", "s"},
      {"persist.flush_s", "s"},
      {"persist.commut_loaded", "count"},
      {"persist.cache_hits", "count"},
      {"persist.cache_seeded", "count"},
      {"persist.rounds_saved_warm", "count"},
      {"trace.untraced_frac", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return List;
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

std::string num(double V) {
  char Buf[64];
  auto [End, Err] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Err == std::errc() ? std::string(Buf, End) : "0";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// A one-line JSON object from already-rendered values.
std::string
object(const std::vector<std::pair<std::string, std::string>> &Fields) {
  std::string Out = "{";
  for (const auto &[Key, Value] : Fields) {
    if (Out.size() > 1)
      Out += ", ";
    Out += jsonString(Key) + ": " + Value;
  }
  return Out + "}";
}

} // namespace

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

std::vector<std::string> perfbench::workloadNames() {
  return {"dfs_scale", "refine_deep", "suite_mix", "warm_restart"};
}

std::optional<Workload> perfbench::makeWorkload(const std::string &Name,
                                                bool Smoke) {
  Workload W;
  W.Name = Name;
  if (Name == "dfs_scale") {
    W.Kind = Mode::SeqOrder;
    W.Instances = {
        {"bluetooth_6", workloads::bluetoothSource(6, false), true,
         "bluetooth"},
        {"bluetooth_bug_6", workloads::bluetoothSource(6, true), false,
         "bluetooth"},
        {"bluetooth_7", workloads::bluetoothSource(7, false), true,
         "bluetooth"},
    };
    W.TailGroup = 1;
  } else if (Name == "refine_deep") {
    W.Kind = Mode::SeqOrder;
    W.Instances = refinementInstances();
    W.TailGroup = 2;
  } else if (Name == "suite_mix") {
    W.Kind = Mode::Portfolio;
    W.Instances = workloads::svcompLikeSuite();
    W.TailGroup = 2;
  } else if (Name == "warm_restart") {
    W.Kind = Mode::WarmRestart;
    W.Instances = refinementInstances();
    W.TailGroup = 2;
  } else {
    return std::nullopt;
  }
  if (Smoke)
    W.Instances.resize(1);
  return W;
}

Tracer::Tracer() : Origin(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

int Tracer::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Start = now();
  Spans.push_back(S);
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void Tracer::end(int Index) {
  Spans[static_cast<size_t>(Index)].End = now();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path);
  Out << "[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << object({{"name", jsonString(S.Name)},
                   {"request", std::to_string(S.Request)},
                   {"start", num(S.Start)},
                   {"end", num(S.End)},
                   {"parent", std::to_string(S.Parent)}})
        << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]\n";
  return static_cast<bool>(Out);
}

WorkCounters RequestResult::counters() const {
  WorkCounters C;
  C.Rounds = Stats.get("rounds");
  C.PeakVisited = PeakVisited;
  C.HoareQueries = Stats.get("hoare_queries");
  C.SmtQueries = Stats.get("smt_queries");
  C.SemanticCommutChecks = Stats.get("semantic_commut_checks");
  C.UselessCacheHits = Stats.get("useless_cache_hits");
  return C;
}

RequestResult perfbench::serveRequest(const Workload &W,
                                      const WorkloadInstance &I,
                                      const std::string &CacheDir,
                                      Tracer *T) {
  settleHeap();
  if (T)
    T->nextRequest();
  double Seconds = 0;
  RequestResult Out = timed(T, "request", &Seconds, [&] {
    return serveImpl(W, I, CacheDir, T);
  });
  Out.Seconds = Seconds;
  if (T)
    sideSpans(W, I, CacheDir, *T);
  return Out;
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::clamp(P, 0.0, 100.0) / 100.0 *
                static_cast<double>(Values.size() - 1);
  size_t Below = static_cast<size_t>(Rank);
  if (Below + 1 >= Values.size())
    return Values.back();
  double Frac = Rank - static_cast<double>(Below);
  return Values[Below] + Frac * (Values[Below + 1] - Values[Below]);
}

Report perfbench::runBenchmark(const Options &Opts) {
  Timer Clock;
  Workload W = *makeWorkload(Opts.Workload, Opts.Smoke);
  Report Rep;
  std::string CacheDir = Opts.WorkDir + "/cache";
  auto Check = [&Rep](const RequestResult &R, const WorkloadInstance &I) {
    ++Rep.Attempted;
    if (!R.ok()) {
      ++Rep.Failed;
      Rep.Correct = false;
      std::fprintf(stderr, "seqbench: %s: verdict %s, expected %s%s\n",
                   I.Name.c_str(), R.Verdict.c_str(),
                   I.ExpectedCorrect ? "correct" : "incorrect",
                   R.WitnessOk ? "" : ", witness does not replay");
    }
  };

  // Set-up: the warm-restart cache is filled by one cold pass and one warm
  // pass. The warm pass asks the commutativity store new questions; after
  // it the store no longer changes, so every measured pass does the same
  // work (the benchmark's determinism test checks this).
  double PrefillSeconds = 0;
  if (W.Kind == Mode::WarmRestart) {
    std::error_code EC;
    std::filesystem::remove_all(CacheDir, EC);
    std::filesystem::create_directories(CacheDir, EC);
    Timer Prefill;
    for (int Pass = 0; Pass < PrefillPasses; ++Pass)
      for (const WorkloadInstance &I : W.Instances)
        Check(serveRequest(W, I, CacheDir, nullptr), I);
    PrefillSeconds = Prefill.seconds();
  }

  Tracer Tr;
  std::vector<Record> Records;
  std::vector<size_t> Pending;
  settleHeap();
  std::vector<double> Ref = {sampleKernel()};
  double WorkSinceSample = 0;
  int DriftFlags = 0;
  auto SampleKernel = [&] {
    settleHeap();
    double Sample = sampleKernel();
    for (size_t Index : Pending) {
      Records[Index].RefBefore = Ref.back();
      Records[Index].RefAfter = Sample;
    }
    if (speedChanged(Ref.back(), Sample))
      ++DriftFlags;
    Ref.push_back(Sample);
    Pending.clear();
    WorkSinceSample = 0;
  };

  // Traced runs alternate traced and untraced passes; the untraced ones
  // measure the tracing overhead.
  int MinPasses = Opts.Trace ? 2 : 1;
  Rng Shuffle(Opts.Seed);
  int Passes = 0;
  bool CapHit = false;
  double MeasureUntil = PrefillSeconds + Opts.Seconds;
  while (!CapHit && (Passes < MinPasses ||
                     (!Opts.Smoke && Clock.seconds() < MeasureUntil))) {
    bool Traced = Opts.Trace && Passes % 2 == 0;
    std::vector<size_t> Order(W.Instances.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    Shuffle.shuffle(Order);

    for (size_t Index : Order) {
      if (Clock.seconds() > HardCapSeconds) {
        CapHit = true;
        break;
      }
      size_t Lo = Tr.spans().size();
      const WorkloadInstance &I = W.Instances[Index];
      RequestResult R = serveRequest(W, I, CacheDir, Traced ? &Tr : nullptr);
      Check(R, I);
      Record Rec;
      Rec.Pass = Passes;
      Rec.Traced = Traced;
      Rec.Ok = R.ok();
      Rec.Seconds = R.Seconds;
      Rec.SetupSeconds = R.SetupSeconds;
      Rec.Counts = layerCounts(R);
      Rec.PeakVisited = static_cast<double>(R.PeakVisited);
      if (Traced) {
        layerTimes(Tr.spans(), Lo, Rec);
        Rec.Times["smt.solver_s"] = R.Stats.get("smt_solver_us") * 1e-6;
      }
      Records.push_back(std::move(Rec));
      Pending.push_back(Records.size() - 1);
      WorkSinceSample += R.Seconds;
      if (WorkSinceSample >= SampleEverySeconds)
        SampleKernel();
    }
    if (!Pending.empty())
      SampleKernel();
    ++Passes;
  }
  if (CapHit) {
    Rep.Correct = false;
    ++Rep.Failed;
  }

  // Aggregate per request and per pass.
  std::vector<double> Verdicts, RawVerdicts;
  std::map<int, double> PassSeconds, RawPassSeconds, PassSetup;
  std::map<int, bool> PassTraced;
  std::map<int, std::vector<Record>> TracedPasses;
  for (const Record &Rec : Records) {
    double F = Rec.factor();
    if (Rec.Traced) {
      TracedPasses[Rec.Pass].push_back(Rec);
    } else {
      Verdicts.push_back(Rec.Seconds * F);
      RawVerdicts.push_back(Rec.Seconds);
    }
    PassTraced[Rec.Pass] = Rec.Traced;
    PassSeconds[Rec.Pass] += Rec.Seconds * F;
    RawPassSeconds[Rec.Pass] += Rec.Seconds;
    PassSetup[Rec.Pass] += Rec.SetupSeconds * F;
  }
  // Median over the traced or the untraced passes of a per-pass sum.
  auto PassMedian = [&PassTraced](const std::map<int, double> &ByPass,
                                  bool Traced) {
    std::vector<double> Values;
    for (const auto &[Pass, Value] : ByPass)
      if (PassTraced[Pass] == Traced)
        Values.push_back(Value);
    return median(Values);
  };
  double PassS = PassMedian(PassSeconds, false);
  double SetupS = PassMedian(PassSetup, false);
  uint64_t Decided = 0;
  for (const Record &Rec : Records)
    Decided += Rec.Ok;

  if (Opts.Trace) {
    std::map<std::string, std::vector<double>> Layers;
    for (const auto &[Pass, Recs] : TracedPasses)
      for (const auto &[Name, Value] : passLayers(Recs))
        Layers[Name].push_back(Value);
    double TracedPassS = PassMedian(PassSeconds, true);
    for (const auto &[Name, Unit] : layerMetrics()) {
      double Value = Name == "trace.overhead_ratio"
                         ? ratio(TracedPassS, PassS)
                         : median(Layers[Name]);
      Rep.Metrics.push_back({Name, Unit, Value});
    }
    if (!Opts.TraceOut.empty() && !Tr.write(Opts.TraceOut))
      Rep.Notes.push_back(object(
          {{"warning", jsonString("cannot write " + Opts.TraceOut)}}));
  } else {
    Rep.Metrics = {
        {"verdict_s_p50", "s", percentile(Verdicts, 50)},
        {"verdict_s_tail", "s", percentile(Verdicts, W.tailPercentile())},
        {"pass_s", "s", PassS},
        {"decided_frac", "ratio",
         ratio(static_cast<double>(Decided),
               static_cast<double>(Records.size()))},
        {"setup_s", "s", SetupS},
        {"peak_rss_mb", "MB", peakRssMb()},
    };
  }

  double RefMedian = median(Ref);
  double RefSpread =
      ratio(percentile(Ref, 75) - percentile(Ref, 25), RefMedian);
#ifdef NDEBUG
  const char *Asserts = "false";
#else
  const char *Asserts = "true";
#endif
  Rep.Notes.push_back(object(
      {{"host", "true"},
       {"nproc", std::to_string(std::thread::hardware_concurrency())},
       {"cpu_model", jsonString(cpuModel())},
       {"build_type", jsonString(PERFBENCH_BUILD_TYPE)},
       {"asserts", Asserts},
       {"commit", jsonString(Opts.Commit)},
       {"source_digest", jsonString(Opts.SourceDigest)},
       {"ref_nominal_s", num(RefNominalSeconds)},
       {"ref_median_s", num(RefMedian)},
       {"ref_spread", num(RefSpread)},
       {"ref_samples", std::to_string(Ref.size())},
       {"drift_flags", std::to_string(DriftFlags)}}));
  double Beyond = static_cast<double>(Verdicts.size()) *
                  (100 - W.tailPercentile()) / 100.0;
  Rep.Notes.push_back(object(
      {{"workload", jsonString(W.Name)},
       {"seed", std::to_string(Opts.Seed)},
       {"instances", std::to_string(W.Instances.size())},
       {"passes", std::to_string(Passes)},
       {"requests", std::to_string(Records.size())},
       {"tail_percentile", num(W.tailPercentile())},
       {"samples_beyond_tail", num(Beyond)},
       {"prefill_s", num(PrefillSeconds)},
       {"raw_verdict_s_p50", num(percentile(RawVerdicts, 50))},
       {"raw_pass_s", num(PassMedian(RawPassSeconds, false))},
       {"time_cap_hit", CapHit ? "true" : "false"}}));
  if (W.Kind == Mode::WarmRestart) {
    std::error_code EC;
    std::filesystem::remove_all(CacheDir, EC);
  }
  return Rep;
}

std::string perfbench::resultLine(const Report &R) {
  std::vector<std::pair<std::string, std::string>> Metrics;
  for (const Metric &M : R.Metrics)
    Metrics.push_back({M.Name, object({{"value", num(M.Value)},
                                       {"unit", jsonString(M.Unit)}})});
  return object({{"correct", R.Correct ? "true" : "false"},
                 {"attempted", std::to_string(R.Attempted)},
                 {"failed", std::to_string(R.Failed)},
                 {"metrics", object(Metrics)}});
}
