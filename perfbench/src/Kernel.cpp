//===- Kernel.cpp - Reference kernel for drift normalisation --------------===//

#include "Kernel.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

using namespace perfbench;

namespace {

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

constexpr size_t Threads = 4;
constexpr uint32_t Locations = 13;
constexpr size_t MaxSteps = 20000;

/// A miniature of the verifier's proof-check DFS: explicit-state search over
/// the product of four 13-location counters, with a hash set of visited
/// states, a string-keyed counter map and a small heap allocation per
/// state, then a sort of the visited states' hashes. The successor choice
/// comes from a fixed-seed generator, so every sample does the same work.
/// On the calibration host this tracked the verifier's speed better than
/// a flat hash-probe-and-sort loop, whose speed drifted apart from the
/// verifier's under neighbouring load.
uint64_t searchOnce() {
  uint64_t Rng = 99;
  std::unordered_set<uint64_t> Seen;
  std::map<std::string, int64_t> Counters;
  std::vector<std::vector<uint32_t>> Stack;
  Stack.push_back(std::vector<uint32_t>(Threads, 0));
  for (size_t Steps = 0; !Stack.empty() && Steps < MaxSteps; ++Steps) {
    std::vector<uint32_t> State = std::move(Stack.back());
    Stack.pop_back();
    uint64_t Hash = 1469598103934665603ULL;
    for (uint32_t Loc : State)
      Hash = (Hash ^ Loc) * 1099511628211ULL;
    if (!Seen.insert(Hash).second) {
      ++Counters["revisits"];
      continue;
    }
    ++Counters["visited"];
    for (size_t T = 0; T < Threads; ++T) {
      std::vector<uint32_t> Next = State;
      Next[T] = (Next[T] * 7 + static_cast<uint32_t>(T) + 1) % Locations;
      if ((splitmix(Rng) & 3) != 0)
        Stack.push_back(std::move(Next));
    }
  }
  std::vector<uint64_t> Hashes(Seen.begin(), Seen.end());
  std::sort(Hashes.begin(), Hashes.end());
  return Hashes[Hashes.size() / 2] +
         static_cast<uint64_t>(Counters["revisits"]);
}

/// Keeps the kernel's result observable so the work is not optimised away.
volatile uint64_t Sink = 0;

double timeOnce() {
  auto Start = std::chrono::steady_clock::now();
  Sink = Sink + searchOnce();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

} // namespace

double perfbench::sampleKernel() {
  double Reps[5];
  for (double &Rep : Reps)
    Rep = timeOnce();
  std::sort(Reps, Reps + 5);
  return Reps[2];
}

double perfbench::normalise(double Raw, double RefBefore, double RefAfter,
                            double RefNominal) {
  return Raw * RefNominal / ((RefBefore + RefAfter) / 2);
}

bool perfbench::speedChanged(double RefBefore, double RefAfter) {
  return RefBefore > 2 * RefAfter || RefAfter > 2 * RefBefore;
}
