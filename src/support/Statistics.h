//===- support/Statistics.h - Named counters for the verifier -------------===//
///
/// \file
/// A lightweight bag of named counters and gauges. The empirical evaluation
/// (Sec. 8) reports refinement rounds, proof sizes, states constructed, and
/// memory; collecting them through one object keeps the bench harnesses
/// uniform.
///
/// Counters register lazily: the first add()/setMax() of a name creates it.
/// Off the hot paths, components bump a sink at the event site; hot-path
/// counters are plain integers the owner exports once under their names
/// (see CommutativityChecker::exportStatistics), so the per-event cost is
/// an increment, not a string-keyed map lookup.
/// Readers use get(), which returns 0 for never-bumped names, so absent
/// and zero counters are indistinguishable by design.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SUPPORT_STATISTICS_H
#define SEQVER_SUPPORT_STATISTICS_H

#include <cstdint>
#include <map>
#include <string>

namespace seqver {

/// Ordered map of counter name to value; ordered so that dumps are stable.
class Statistics {
public:
  void add(const std::string &Name, int64_t Delta = 1) {
    Counters[Name] += Delta;
  }
  void setMax(const std::string &Name, int64_t Value) {
    int64_t &Slot = Counters[Name];
    if (Value > Slot)
      Slot = Value;
  }
  int64_t get(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }
  const std::map<std::string, int64_t> &all() const { return Counters; }

  void mergeFrom(const Statistics &Other) {
    for (const auto &[Name, Value] : Other.Counters)
      Counters[Name] += Value;
  }

  std::string str() const;

private:
  std::map<std::string, int64_t> Counters;
};

} // namespace seqver

#endif // SEQVER_SUPPORT_STATISTICS_H
