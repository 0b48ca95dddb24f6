#ifndef NIMBUS_COMMON_HASH_H_
#define NIMBUS_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace nimbus {

// 64-bit FNV-1a parameters (the published offset basis and prime).
inline constexpr uint64_t kFnv64OffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv64Prime = 0x100000001b3ull;

// The basis the seed-mixing callers (shard lane seeds, catalog routing,
// auditor sample streams, fault-point streams) have always folded from:
// the published basis with its last decimal digit dropped. Kept so that
// every seed, route and fault stream stays what it was.
inline constexpr uint64_t kSeedMixBasis = 1469598103934665603ull;

// FNV-1a over `bytes`, continuing from `hash`. Folding chunks in order
// equals hashing their concatenation, which is how the ledger keeps a
// running fingerprint of its journal payloads.
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t hash = kFnv64OffsetBasis) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnv64Prime;
  }
  return hash;
}

}  // namespace nimbus

#endif  // NIMBUS_COMMON_HASH_H_
