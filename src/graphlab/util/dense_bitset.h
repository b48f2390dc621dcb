// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// A fixed-size bitset with atomic set/test-and-set, used by schedulers for
// the "T is a set: duplicate vertices are ignored" semantics (Alg. 2), by
// the snapshot algorithm to mark snapshotted vertices, and by the engines
// and the distributed graph to stage ghost signals and deltas per window.

#ifndef GRAPHLAB_UTIL_DENSE_BITSET_H_
#define GRAPHLAB_UTIL_DENSE_BITSET_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "graphlab/util/logging.h"

namespace graphlab {

/// Fixed capacity bitset with lock-free per-bit operations.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(size_t num_bits) { Resize(num_bits); }

  /// Resizes and clears.  Not thread safe w.r.t. concurrent bit ops.
  void Resize(size_t num_bits) {
    num_bits_ = num_bits;
    words_ = std::vector<std::atomic<uint64_t>>((num_bits + 63) / 64);
    Clear();
  }

  void Clear() {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

  size_t size() const { return num_bits_; }

  bool Test(size_t i) const {
    GL_CHECK_LT(i, num_bits_);
    return (words_[i >> 6].load(std::memory_order_acquire) >> (i & 63)) & 1;
  }

  /// Sets bit i; returns true iff the bit was previously clear.
  bool SetBit(size_t i) {
    GL_CHECK_LT(i, num_bits_);
    uint64_t mask = uint64_t{1} << (i & 63);
    uint64_t old = words_[i >> 6].fetch_or(mask, std::memory_order_acq_rel);
    return (old & mask) == 0;
  }

  /// Clears bit i; returns true iff the bit was previously set.
  bool ClearBit(size_t i) {
    GL_CHECK_LT(i, num_bits_);
    uint64_t mask = uint64_t{1} << (i & 63);
    uint64_t old = words_[i >> 6].fetch_and(~mask, std::memory_order_acq_rel);
    return (old & mask) != 0;
  }

  /// Clears every set bit, calling fn(i) for each in ascending order.  A
  /// bit set concurrently is either visited now or left set.
  template <typename Fn>
  void DrainSetBits(Fn fn) {
    for (size_t w = 0; w < words_.size(); ++w) {
      if (words_[w].load(std::memory_order_relaxed) == 0) continue;
      uint64_t bits = words_[w].exchange(0, std::memory_order_acq_rel);
      for (; bits != 0; bits &= bits - 1) {
        fn((w << 6) + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Number of set bits (not atomic with respect to concurrent writers).
  size_t PopCount() const {
    size_t n = 0;
    for (const auto& w : words_) {
      n += __builtin_popcountll(w.load(std::memory_order_relaxed));
    }
    return n;
  }

  /// Index of the first set bit at or after `from`, or size() if none.
  size_t FindFirstFrom(size_t from) const { return FindFirstInRange(from, num_bits_); }

  /// Index of the first set bit in [from, limit), or `limit` if none —
  /// the shard-range scan of the sharded sweep scheduler.
  size_t FindFirstInRange(size_t from, size_t limit) const {
    limit = limit < num_bits_ ? limit : num_bits_;
    if (from >= limit) return limit;
    size_t word = from >> 6;
    uint64_t w = words_[word].load(std::memory_order_acquire) &
                 (~uint64_t{0} << (from & 63));
    for (;;) {
      if (w != 0) {
        size_t bit = (word << 6) + __builtin_ctzll(w);
        return bit < limit ? bit : limit;
      }
      if (++word > (limit - 1) >> 6) return limit;
      w = words_[word].load(std::memory_order_acquire);
    }
  }

 private:
  size_t num_bits_ = 0;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_UTIL_DENSE_BITSET_H_
