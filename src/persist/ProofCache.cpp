//===- persist/ProofCache.cpp - Versioned on-disk proof store -------------===//

#include "persist/ProofCache.h"

using namespace seqver;
using namespace seqver::persist;

namespace {

const RecordFormat ProofFormat{".proof",
                               "seqver-proof-cache 1",
                               {"verdict", "order", "rounds"},
                               "predicates",
                               ProofCache::MaxPredicates};

} // namespace

ProofCache::ProofCache(std::string Directory)
    : RecordStore(std::move(Directory), ProofFormat) {}

bool ProofCache::load(const Fingerprint &FP, StoredProof &Out) const {
  RecordPayload Payload;
  if (!loadPayload(FP, Payload))
    return false;
  StoredProof Proof;
  Proof.Verdict = std::move(Payload.Header[0]);
  if (Proof.Verdict != "correct" && Proof.Verdict != "incorrect")
    return false;
  Proof.Order = std::move(Payload.Header[1]);
  if (!parseCount(Payload.Header[2], UINT64_MAX, Proof.Rounds))
    return false;
  Proof.Predicates = std::move(Payload.Items);
  Out = std::move(Proof);
  return true;
}

bool ProofCache::store(const Fingerprint &FP, const StoredProof &Proof,
                       uint64_t *Evicted) const {
  return storePayload(FP,
                      {{Proof.Verdict, Proof.Order,
                        std::to_string(Proof.Rounds)},
                       Proof.Predicates},
                      Evicted);
}
