/**
 * @file
 * The one FNV-1a 64 primitive behind every persisted or pinned 64-bit
 * key: Point::key64(), workloadKeyFor(), ComputeDag::fingerprint() and
 * the fault injector's per-point draw. The constants are load-bearing —
 * checkpoints, caches and journals persist these keys, and the
 * determinism and fault digests pin them.
 */
#ifndef FLEXTENSOR_SUPPORT_HASH_H
#define FLEXTENSOR_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ft {

/** Incremental 64-bit FNV-1a over bytes, words and strings. */
class Fnv1a64
{
  public:
    /** The basis of every persisted key: the standard FNV-1a basis
     *  with its last decimal digit dropped. Pinned; never "fix" it. */
    static constexpr uint64_t kOffset = 1469598103934665603ULL;
    /** The standard FNV-1a basis, behind the fault injector's draws. */
    static constexpr uint64_t kStandardOffset = 0xcbf29ce484222325ULL;
    static constexpr uint64_t kPrime = 1099511628211ULL;

    explicit Fnv1a64(uint64_t basis = kOffset) : h_(basis) {}

    /** Raw bytes, no length prefix. */
    Fnv1a64 &bytes(std::string_view s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= kPrime;
        }
        return *this;
    }

    /** The 8 little-endian bytes of `v`. */
    Fnv1a64 &u64(uint64_t v)
    {
        for (int b = 0; b < 8; ++b, v >>= 8) {
            h_ ^= v & 0xffu;
            h_ *= kPrime;
        }
        return *this;
    }

    /** Length-prefixed string: u64(size) then the bytes. */
    Fnv1a64 &str(std::string_view s) { return u64(s.size()).bytes(s); }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_;
};

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_HASH_H
