//===- persist/RecordStore.h - Framed on-disk records per fingerprint -----===//
///
/// \file
/// The one on-disk record format behind the proof cache
/// (persist/ProofCache.h) and the commutativity store
/// (persist/CommutStore.h): one text file per program fingerprint and
/// record kind under a cache directory, named `<32hex><extension>`. This
/// module owns the framing, the read cap, the atomic write and the
/// eviction; a record kind contributes only a RecordFormat and a codec
/// that turns its payload to and from header values and item lines.
///
/// Framing (text, one record per file):
///
/// \verbatim
///   <magic>                        format magic + version of the kind
///   fingerprint <32 hex digits>    must match the file's key
///   <key> <value>                  one line per RecordFormat::HeaderKeys
///   <count key> <n>                number of item lines that follow
///   <item> ...                     one payload item per line
///   checksum <16 hex digits>       FNV-1a 64 over every preceding byte
/// \endverbatim
///
/// Trust model: **nothing in a record is trusted.** A load only succeeds
/// if the size, magic, fingerprint, header keys, count and trailing
/// checksum all agree; anything else is a silent miss. What a consumer
/// may then believe is the codec's and the consumer's business
/// (docs/PERSIST.md).
///
/// Concurrency: a store writes a unique temp file in the cache directory
/// and renames it over the destination. POSIX rename is atomic, so racing
/// writers (parallel portfolio workers, concurrent seqver processes)
/// yield last-writer-wins with no torn reads.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_PERSIST_RECORDSTORE_H
#define SEQVER_PERSIST_RECORDSTORE_H

#include "persist/Fingerprint.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seqver {
namespace persist {

/// The layout of one record kind. Each kind has its own file extension,
/// so eviction and lookups of one kind never see records of another.
struct RecordFormat {
  const char *Extension;               ///< file suffix, e.g. ".proof"
  const char *Magic;                   ///< first line, e.g. "seqver-proof-cache 1"
  std::vector<const char *> HeaderKeys; ///< keys of the fixed header lines
  const char *CountKey;                ///< key of the item-count line
  uint64_t MaxItems;                   ///< ceiling on the item count
};

/// A record's payload: one nonempty value per RecordFormat::HeaderKeys
/// entry, in order, and the item lines. Neither may contain a newline.
struct RecordPayload {
  std::vector<std::string> Header;
  std::vector<std::string> Items;
};

/// Handle on the records of one kind in one cache directory. Copyable
/// and stateless apart from the path; safe to share across threads (all
/// methods touch only the filesystem). An empty directory disables the
/// store: loads miss and stores fail.
class RecordStore {
public:
  RecordStore(std::string Directory, const RecordFormat &Format);

  /// Absolute path of the record for FP.
  std::string pathFor(const Fingerprint &FP) const;

  /// Reads and verifies the record for FP. Returns false — never throws,
  /// never asserts — on a missing file, size over MaxFileBytes, checksum
  /// failure, wrong magic, declared fingerprint other than FP, missing or
  /// misnamed header lines, or a count over MaxItems or unequal to the
  /// item lines present.
  bool loadPayload(const Fingerprint &FP, RecordPayload &Out) const;

  /// Atomically (re)writes the record for FP, creating the directory if
  /// missing. Items are dropped from the tail until the count is within
  /// MaxItems and the record within MaxFileBytes, so every record written
  /// passes loadPayload. Returns false if the directory is unusable or
  /// the record does not fit even without items. After a write the
  /// kind's records are brought back under MaxEntries / MaxTotalBytes by
  /// evictOverCap; *Evicted (when non-null) receives the number removed.
  bool storePayload(const Fingerprint &FP, const RecordPayload &Payload,
                    uint64_t *Evicted = nullptr) const;

  /// Deletes this kind's records, oldest modification time first, until
  /// they are within both caps. Returns the number removed. Losing a
  /// record only costs a later run its reuse, so racing evictions at
  /// worst delete a file twice (the second remove is a no-op). Files of
  /// other kinds are never touched.
  uint64_t evictOverCap() const;

  /// Hard ceiling on a record's byte size; larger files are rejected
  /// unread so an adversarial cache directory cannot balloon memory.
  static constexpr uint64_t MaxFileBytes = 8u << 20;
  /// Eviction caps per record kind: record count and total byte size.
  static constexpr uint64_t MaxEntries = 256;
  static constexpr uint64_t MaxTotalBytes = 64u << 20;

private:
  std::string Dir;
  const RecordFormat *Format;
};

/// Strict decimal parse with a ceiling; rejects empty, non-digit, and
/// overflowing input.
bool parseCount(const std::string &Text, uint64_t Max, uint64_t &Out);

} // namespace persist
} // namespace seqver

#endif // SEQVER_PERSIST_RECORDSTORE_H
