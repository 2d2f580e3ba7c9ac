//===- perfbench_test.cpp - Tests of the benchmark itself -----------------===//
///
/// \file
/// The reference kernel's scaling and drift flag, exact repetition of the
/// per-request work counters (which lets a later change make a count-based
/// claim), and a one-instance smoke run per workload that must print every
/// metric BENCHMARK.json names, with its unit.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

using namespace perfbench;

namespace {

std::string workDir(const std::string &Name) {
  std::string Dir = "perfbench_test_work/" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Name -> unit of every metric in one section of BENCHMARK.json.
std::map<std::string, std::string> manifestMetrics(const std::string &Section) {
  std::ifstream In(PERFBENCH_MANIFEST);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();
  size_t Begin = Text.find("\"" + Section + "\"");
  EXPECT_NE(Begin, std::string::npos) << Section;
  size_t End = Text.find(']', Begin);
  std::string Body = Text.substr(Begin, End - Begin);
  std::map<std::string, std::string> Out;
  std::regex Entry(
      R"re("name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  for (auto It = std::sregex_iterator(Body.begin(), Body.end(), Entry);
       It != std::sregex_iterator(); ++It)
    Out[(*It)[1]] = (*It)[2];
  return Out;
}

} // namespace

TEST(Kernel, ScalingIsIdentityAtNominalSpeed) {
  for (double Raw : {0.0, 1e-6, 0.25, 3.5})
    EXPECT_DOUBLE_EQ(normalise(Raw, RefNominalSeconds, RefNominalSeconds),
                     Raw);
  EXPECT_DOUBLE_EQ(normalise(2.0, 0.01, 0.01, 0.01), 2.0);
}

TEST(Kernel, ScalingUsesMeanOfAdjacentSamples) {
  // Machine twice as slow as nominal on average: halve the duration.
  EXPECT_DOUBLE_EQ(normalise(1.0, 0.015, 0.025, 0.01), 0.5);
}

TEST(Kernel, SpeedChangeOverTwoXIsFlagged) {
  EXPECT_TRUE(speedChanged(0.01, 0.0201));
  EXPECT_TRUE(speedChanged(0.0201, 0.01));
  EXPECT_FALSE(speedChanged(0.01, 0.0199));
  EXPECT_FALSE(speedChanged(0.0199, 0.01));
  EXPECT_FALSE(speedChanged(0.01, 0.01));
}

TEST(Kernel, SampleIsPositiveAndFinite) {
  double Sample = sampleKernel();
  EXPECT_GT(Sample, 0);
  EXPECT_TRUE(std::isfinite(Sample));
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 50), 2);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 100), 4);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0), 1);
}

/// Two back-to-back requests of the same instance do identical work.
void expectCountersRepeat(const Workload &W, const std::string &CacheDir,
                          size_t MaxInstances) {
  for (size_t I = 0; I < W.Instances.size() && I < MaxInstances; ++I) {
    const auto &Instance = W.Instances[I];
    RequestResult First = serveRequest(W, Instance, CacheDir, nullptr);
    RequestResult Second = serveRequest(W, Instance, CacheDir, nullptr);
    EXPECT_TRUE(First.ok()) << W.Name << "/" << Instance.Name;
    EXPECT_TRUE(Second.ok()) << W.Name << "/" << Instance.Name;
    WorkCounters A = First.counters(), B = Second.counters();
    EXPECT_GT(A.Rounds, 0) << Instance.Name;
    EXPECT_EQ(A.Rounds, B.Rounds) << Instance.Name;
    EXPECT_EQ(A.PeakVisited, B.PeakVisited) << Instance.Name;
    EXPECT_EQ(A.HoareQueries, B.HoareQueries) << Instance.Name;
    EXPECT_EQ(A.SmtQueries, B.SmtQueries) << Instance.Name;
    EXPECT_EQ(A.SemanticCommutChecks, B.SemanticCommutChecks)
        << Instance.Name;
    EXPECT_EQ(A.UselessCacheHits, B.UselessCacheHits) << Instance.Name;
  }
}

TEST(Determinism, DfsScaleCountersRepeat) {
  // bluetooth_7 alone takes seconds; its two smaller siblings cover the
  // same code.
  expectCountersRepeat(*makeWorkload("dfs_scale"), "", 2);
}

TEST(Determinism, RefineDeepCountersRepeat) {
  expectCountersRepeat(*makeWorkload("refine_deep"), "", SIZE_MAX);
}

TEST(Determinism, SuiteMixCountersRepeat) {
  expectCountersRepeat(*makeWorkload("suite_mix"), "", SIZE_MAX);
}

TEST(Determinism, WarmRestartCountersRepeatAfterSetUp) {
  Workload W = *makeWorkload("warm_restart");
  std::string CacheDir = workDir("determinism") + "/cache";
  std::filesystem::create_directories(CacheDir);
  // The benchmark's set-up: one cold pass, one warm pass.
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const auto &Instance : W.Instances)
      ASSERT_TRUE(serveRequest(W, Instance, CacheDir, nullptr).ok());
  expectCountersRepeat(W, CacheDir, SIZE_MAX);
}

TEST(Output, WrongGroundTruthFailsTheRequest) {
  Workload W = *makeWorkload("refine_deep");
  for (auto Instance : {W.Instances.front(), W.Instances.back()}) {
    Instance.ExpectedCorrect = !Instance.ExpectedCorrect;
    RequestResult R = serveRequest(W, Instance, "", nullptr);
    EXPECT_TRUE(R.Decisive);
    EXPECT_FALSE(R.Matches);
    EXPECT_FALSE(R.ok());
  }
}

TEST(Smoke, EveryWorkloadPrintsEveryManifestMetric) {
  std::map<std::string, std::string> EndToEnd = manifestMetrics("end_to_end");
  std::map<std::string, std::string> PerLayer = manifestMetrics("per_layer");
  ASSERT_FALSE(EndToEnd.empty());
  ASSERT_FALSE(PerLayer.empty());
  for (const std::string &Name : workloadNames()) {
    for (bool Trace : {false, true}) {
      Options Opts;
      Opts.Workload = Name;
      Opts.Smoke = true;
      Opts.Trace = Trace;
      Opts.WorkDir = workDir("smoke_" + Name);
      Report R = runBenchmark(Opts);
      EXPECT_TRUE(R.Correct) << Name;
      EXPECT_GE(R.Attempted, 1u) << Name;
      EXPECT_EQ(R.Failed, 0u) << Name;
      std::map<std::string, std::string> Printed;
      for (const Metric &M : R.Metrics) {
        Printed[M.Name] = M.Unit;
        EXPECT_TRUE(std::isfinite(M.Value)) << Name << " " << M.Name;
      }
      EXPECT_EQ(Printed, Trace ? PerLayer : EndToEnd) << Name;
      std::string Line = resultLine(R);
      for (const auto &[Metric, Unit] : Printed)
        EXPECT_NE(Line.find("\"" + Metric + "\": {\"value\": "),
                  std::string::npos)
            << Metric;
    }
  }
}
