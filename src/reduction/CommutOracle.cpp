//===- reduction/CommutOracle.cpp - Shared commutativity memo table -------===//

#include "reduction/CommutOracle.h"

#include "persist/CommutStore.h"

using namespace seqver;
using namespace seqver::red;
using seqver::persist::Fingerprint;

std::string seqver::red::canonicalActionText(const smt::TermManager &TM,
                                             const prog::Action &A) {
  // Thread identity matters (same-thread pairs never commute) but the
  // diagnostic Name and the parse-order Letter do not — mirror the
  // fingerprint hasher's choice of what is semantic.
  std::string Text = "t" + std::to_string(A.ThreadId);
  for (const prog::Prim &P : A.Prims) {
    Text += ';';
    switch (P.K) {
    case prog::Prim::Kind::Assume:
      Text += "assume " + TM.str(P.Guard);
      break;
    case prog::Prim::Kind::AssignInt:
      Text += P.Var->name() + ":=" + TM.strSum(P.IntValue);
      break;
    case prog::Prim::Kind::AssignBool:
      Text += P.Var->name() + ":=b" + TM.str(P.BoolValue);
      break;
    case prog::Prim::Kind::Havoc:
      Text += "havoc " + P.Var->name();
      break;
    }
  }
  return Text;
}

Fingerprint CommutOracle::makeKey(const std::string &ActMinText,
                                  const std::string &ActMaxText,
                                  const std::string &PhiText) {
  persist::DualMixer H;
  H.word(1); // key format version; bump on any canonical-text change
  H.str(ActMinText);
  H.str(ActMaxText);
  H.str(PhiText);
  return H.result();
}

OracleAnswer CommutOracle::lookup(const Fingerprint &Key) const {
  const Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(Key);
  if (It == S.Map.end())
    return OracleAnswer::Unknown;
  return It->second ? OracleAnswer::Commutes : OracleAnswer::Dependent;
}

void CommutOracle::publish(const Fingerprint &Key, bool Commutes) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  S.Map.emplace(Key, Commutes);
}

void CommutOracle::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Map.clear(); // keeps bucket capacity
  }
}

size_t CommutOracle::size() const {
  size_t Total = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Total += S.Map.size();
  }
  return Total;
}

size_t CommutOracle::bindDisk(const std::string &Dir,
                              const Fingerprint &ProgramFP,
                              bool ConservativeLoad) {
  DiskDir = Dir;
  DiskFP = ProgramFP;
  DiskBound = true;
  Loaded = 0;
  persist::CommutStore Store(Dir);
  std::vector<persist::CommutEntry> Entries;
  if (!Store.load(ProgramFP, Entries))
    return 0;
  for (const persist::CommutEntry &E : Entries) {
    if (ConservativeLoad && E.Commutes)
      continue;
    publish(E.Key, E.Commutes);
    ++Loaded;
  }
  return static_cast<size_t>(Loaded);
}

bool CommutOracle::flushDisk() const {
  if (!DiskBound)
    return false;
  persist::CommutStore Store(DiskDir);
  // Load-merge-store: keep answers another process persisted meanwhile,
  // with this table's answers taking precedence on overlap. The final
  // rename is atomic, so a racing flush ends last-writer-wins with a
  // well-formed record either way.
  std::vector<persist::CommutEntry> Merged;
  std::unordered_map<Fingerprint, bool, KeyHash> Seen;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (const auto &[Key, Commutes] : S.Map) {
      Merged.push_back({Key, Commutes});
      Seen.emplace(Key, Commutes);
    }
  }
  std::vector<persist::CommutEntry> Existing;
  if (Store.load(DiskFP, Existing))
    for (const persist::CommutEntry &E : Existing)
      if (Seen.emplace(E.Key, E.Commutes).second)
        Merged.push_back(E);
  return Store.store(DiskFP, Merged);
}
