//===- persist/CommutStore.h - On-disk commutativity answers --------------===//
///
/// \file
/// Durable storage for settled commutativity queries: one file per program
/// fingerprint under a cache directory, named `<32hex>.commut`, living
/// beside the `.proof` records of persist/ProofCache.h.
///
/// Payload layout (framing: persist/RecordStore.h):
///
/// \verbatim
///   seqver-commut-cache 1          format magic + version
///   fingerprint <32 hex digits>    must match the file's key
///   entries <n>                    number of entry lines that follow
///   <32 hex digits> commutes|dependent   one settled query per line
///   checksum <16 hex digits>       FNV-1a 64 over every preceding byte
/// \endverbatim
///
/// Each entry key is the 128-bit DualMixer hash of the query's canonical
/// text (reduction/CommutOracle.h builds it); the value is the settled
/// answer. Trust model (docs/PERSIST.md): a record is only parsed when the
/// framing checks all pass — anything else is a silent miss. Beyond that
/// the two answer kinds carry different risk, which the *consumer*
/// arbitrates: "dependent" answers are unconditionally sound to reuse
/// (they only weaken the reduction), while "commutes" answers are trusted
/// on the exact fingerprint + version + checksum match the framing
/// enforces, and can additionally be dropped wholesale by a conservative
/// consumer (`--commut-cache=conservative`).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_PERSIST_COMMUTSTORE_H
#define SEQVER_PERSIST_COMMUTSTORE_H

#include "persist/RecordStore.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seqver {
namespace persist {

/// One settled query: canonical-text hash and its answer.
struct CommutEntry {
  Fingerprint Key;
  bool Commutes = false;
};

/// The `.commut` records of one cache directory, beside its `.proof`
/// records.
class CommutStore : public RecordStore {
public:
  explicit CommutStore(std::string Directory);

  /// Loads the record for FP. Returns false on anything loadPayload
  /// rejects or on a malformed entry line. A rejected record is treated
  /// exactly like a miss.
  bool load(const Fingerprint &FP, std::vector<CommutEntry> &Out) const;

  /// Atomically (re)writes the record for FP (RecordStore::storePayload);
  /// entries beyond MaxEntriesPerFile or the file-size cap are dropped
  /// from the tail.
  bool store(const Fingerprint &FP,
             const std::vector<CommutEntry> &Entries) const;

  /// Hard ceiling on the entry count a record may declare.
  static constexpr uint64_t MaxEntriesPerFile = 1u << 18;
};

} // namespace persist
} // namespace seqver

#endif // SEQVER_PERSIST_COMMUTSTORE_H
