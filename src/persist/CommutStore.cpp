//===- persist/CommutStore.cpp - On-disk commutativity answers ------------===//

#include "persist/CommutStore.h"

using namespace seqver;
using namespace seqver::persist;

namespace {

const RecordFormat CommutFormat{".commut", "seqver-commut-cache 1", {},
                                "entries", CommutStore::MaxEntriesPerFile};

/// Parses one "<32hex> commutes|dependent" entry line.
bool parseEntry(const std::string &Line, CommutEntry &Out) {
  size_t Space = Line.find(' ');
  if (Space != 32)
    return false;
  if (!Fingerprint::fromHex(Line.substr(0, 32), Out.Key))
    return false;
  std::string Answer = Line.substr(33);
  if (Answer == "commutes")
    Out.Commutes = true;
  else if (Answer == "dependent")
    Out.Commutes = false;
  else
    return false;
  return true;
}

} // namespace

CommutStore::CommutStore(std::string Directory)
    : RecordStore(std::move(Directory), CommutFormat) {}

bool CommutStore::load(const Fingerprint &FP,
                       std::vector<CommutEntry> &Out) const {
  RecordPayload Payload;
  if (!loadPayload(FP, Payload))
    return false;
  std::vector<CommutEntry> Entries(Payload.Items.size());
  for (size_t I = 0; I < Entries.size(); ++I)
    if (!parseEntry(Payload.Items[I], Entries[I]))
      return false;
  Out = std::move(Entries);
  return true;
}

bool CommutStore::store(const Fingerprint &FP,
                        const std::vector<CommutEntry> &Entries) const {
  RecordPayload Payload;
  Payload.Items.reserve(Entries.size());
  for (const CommutEntry &E : Entries)
    Payload.Items.push_back(E.Key.hex() +
                            (E.Commutes ? " commutes" : " dependent"));
  return storePayload(FP, Payload);
}
