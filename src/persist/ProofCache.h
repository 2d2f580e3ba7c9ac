//===- persist/ProofCache.h - Versioned on-disk proof store ---------------===//
///
/// \file
/// A durable, content-addressed store of verification proofs: one
/// `<32hex>.proof` record per program fingerprint in the framing of
/// persist/RecordStore.h.
///
/// Payload layout:
///
/// \verbatim
///   seqver-proof-cache 1          format magic + version
///   fingerprint <32 hex digits>   must match the file's key
///   verdict correct|incorrect     the producing run's verdict
///   order <name>                  preference order that produced the proof
///   rounds <n>                    refinement rounds the producing run took
///   predicates <n>                number of predicate lines that follow
///   <canonical term text> ...     one predicate per line (TermIO grammar)
///   checksum <16 hex digits>      FNV-1a 64 over every preceding byte
/// \endverbatim
///
/// Trust model: the stored verdict is never returned as an answer, and
/// the predicates only enter the proof automaton through the Hoare-gated
/// `ProofAutomaton::addSeedPredicates` seam. A corrupt, stale, or
/// deliberately poisoned record therefore costs wasted seeding time,
/// never soundness (docs/PERSIST.md).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_PERSIST_PROOFCACHE_H
#define SEQVER_PERSIST_PROOFCACHE_H

#include "persist/RecordStore.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seqver {
namespace persist {

/// One cache record: the producing run's verdict, preference order,
/// round count, and final predicate basis in canonical text form.
struct StoredProof {
  std::string Verdict; ///< "correct" or "incorrect"
  std::string Order;   ///< preference-order id of the producing run
  uint64_t Rounds = 0; ///< refinement rounds the producing run took
  std::vector<std::string> Predicates;
};

/// The `.proof` records of one cache directory.
class ProofCache : public RecordStore {
public:
  explicit ProofCache(std::string Directory);

  /// Loads the record for FP. Returns false on anything loadPayload
  /// rejects, on an unknown verdict, or on a malformed round count. A
  /// rejected record is treated exactly like a miss.
  bool load(const Fingerprint &FP, StoredProof &Out) const;

  /// Atomically (re)writes the record for FP (RecordStore::storePayload);
  /// predicates beyond MaxPredicates or the file-size cap are dropped
  /// from the tail.
  bool store(const Fingerprint &FP, const StoredProof &Proof,
             uint64_t *Evicted = nullptr) const;

  /// Hard ceiling on the predicates a record holds. It also bounds the
  /// Hoare query burst an adversarial or bloated record can cause.
  static constexpr uint64_t MaxPredicates = 4096;
};

} // namespace persist
} // namespace seqver

#endif // SEQVER_PERSIST_PROOFCACHE_H
