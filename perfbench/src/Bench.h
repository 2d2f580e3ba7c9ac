//===- Bench.h - End-to-end benchmark of seqver -----------------*- C++ -*-===//
///
/// \file
/// Workloads, request serving, span tracing and metric computation of the
/// benchmark (README.md beside this directory's CMakeLists.txt explains the
/// choices). One process runs one workload: a single client in a closed
/// loop on one thread, sending its next request only after the previous
/// verdict. A run covers the workload's instance list in whole passes, so
/// every run has the same mix and its percentiles land on the same
/// instances; the seed permutes the order within each pass.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "support/Statistics.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// How a request reaches a verdict; each mirrors one `seqver` invocation.
enum class Mode {
  /// `seqver --order=seq file.conc`: Full prune, one seq-order verifier
  /// with an in-memory commutativity oracle.
  SeqOrder,
  /// `seqver file.conc`: Full prune, then the sequential portfolio over
  /// seq, lockstep and rand(1..3).
  Portfolio,
  /// `seqver --order=seq --cache-dir=D --commut-cache=persist file.conc`:
  /// proof cache and commutativity store read and written back.
  WarmRestart,
};

struct Workload {
  std::string Name;
  Mode Kind = Mode::SeqOrder;
  std::vector<seqver::workloads::WorkloadInstance> Instances;
  /// verdict_s_tail is the percentile in the middle of the TailGroup-th
  /// slowest instance's samples (tailPercentile()). Because a run covers
  /// whole passes, it then lands on that instance in every run instead of
  /// on the edge between two instances. Fixed per workload: the smallest
  /// group with at least 10 samples beyond it in a default-length run,
  /// where one exists (README.md).
  int TailGroup = 1;
  double tailPercentile() const {
    double Groups = static_cast<double>(Instances.size());
    return 100.0 * (1.0 - (std::min<double>(TailGroup, Groups) - 0.5) / Groups);
  }
};

/// Names of every workload, in the order the benchmark defines them.
std::vector<std::string> workloadNames();

/// The named workload; nullopt for an unknown name. Smoke keeps only the
/// cheapest instance.
std::optional<Workload> makeWorkload(const std::string &Name,
                                     bool Smoke = false);

/// One timed interval recorded around a call into the verifier. Times are
/// seconds since the tracer started; Parent is an index into the tracer's
/// span list, or -1 for a top-level or side span.
struct Span {
  const char *Name = "";
  uint64_t Request = 0;
  double Start = 0;
  double End = 0;
  int Parent = -1;
};

/// In-memory span recorder. Spans of one request share its identifier.
class Tracer {
public:
  Tracer();
  int begin(const char *Name);
  void end(int Index);
  /// Starts the next request identifier.
  void nextRequest() { ++Request; }
  const std::vector<Span> &spans() const { return Spans; }
  /// Writes every span as one JSON array to Path; false on an I/O error.
  bool write(const std::string &Path) const;

private:
  double now() const;
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint64_t Request = 0;
  std::chrono::steady_clock::time_point Origin;
};

/// Work counters of one request that must repeat exactly across runs.
struct WorkCounters {
  int64_t Rounds = 0;
  int64_t PeakVisited = 0;
  int64_t HoareQueries = 0;
  int64_t SmtQueries = 0;
  int64_t SemanticCommutChecks = 0;
  int64_t UselessCacheHits = 0;

  bool operator==(const WorkCounters &) const = default;
};

/// Outcome of one request, raw (not normalised).
struct RequestResult {
  bool Decisive = false;
  /// Every decisive verdict equals the instance's ground truth.
  bool Matches = false;
  /// Every Incorrect witness replays through the concrete interpreter to
  /// an assertion violation.
  bool WitnessOk = true;
  std::string Verdict;
  /// Source text to verdict, teardown included.
  double Seconds = 0;
  /// Preparation before Verifier::run(): parse, CFG build, prune,
  /// Verifier construction, and for WarmRestart fingerprint and store load.
  double SetupSeconds = 0;
  uint32_t Letters = 0;
  uint32_t PrunedEdges = 0;
  int64_t CommutLoaded = 0;
  /// Largest peak_visited of the request's verifier runs.
  int64_t PeakVisited = 0;
  /// Counters summed over the request's verifier runs.
  seqver::Statistics Stats;

  bool ok() const { return Decisive && Matches && WitnessOk; }
  WorkCounters counters() const;
};

/// Serves one request: instance source text to checked verdict. CacheDir
/// is used by WarmRestart only. T may be null (untraced).
RequestResult serveRequest(const Workload &W,
                           const seqver::workloads::WorkloadInstance &I,
                           const std::string &CacheDir, Tracer *T);

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  /// One instance per workload and exactly one pass (tests).
  bool Smoke = false;
  /// Scratch directory for the warm-restart cache; must be writable.
  std::string WorkDir = ".";
  /// Where the traced run writes its spans; empty skips writing.
  std::string TraceOut;
  /// Recorded in the host line; the benchmark cannot read them itself.
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> Metrics;
  /// JSON lines for readers, printed before the result: host record,
  /// raw (unnormalised) figures, kernel spread.
  std::vector<std::string> Notes;
};

/// Runs one workload for Opts.Seconds (whole passes). Opts.Workload must
/// name a workload.
Report runBenchmark(const Options &Opts);

/// The result object, one line of JSON.
std::string resultLine(const Report &R);

/// Percentile P (0..100) of Values by linear interpolation between closest
/// ranks; 0 for no values.
double percentile(std::vector<double> Values, double P);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
