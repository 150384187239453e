#ifndef MDTS_OBS_SEQLOCK_RING_H_
#define MDTS_OBS_SEQLOCK_RING_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mdts {

/// Bounded lock-free record rings: `rings` independent rings of `capacity`
/// slots, each a stamp plus kWords payload words. FlightRecorder and
/// SpanRing are encoders/decoders over it; only this header touches a
/// slot's stamp.
///
/// A writer takes ticket t (fetch_add on the ring's head) and claims slot
/// t & mask with one CAS on its stamp: 0 = empty, 2t + 1 = owned by ticket
/// t, 2(t + 1) = published by ticket t. The claim succeeds only from empty
/// or from a stamp published by an older ticket; a writer that finds the
/// slot owned (a writer a lap behind is still in it) or published by a
/// newer ticket drops its record and counts it in dropped(), so two
/// writers a lap apart never mix their words. Recording is wait-free: one
/// fetch_add, one CAS, relaxed payload stores, a release stamp store.
///
/// Drain() keeps a slot only when it reads the same even stamp before and
/// after copying the words, so it never returns a torn record. It is
/// best-effort under concurrent writers (a slot rewritten mid-copy is
/// skipped) and exact once writers are quiescent.
template <size_t kWords>
class SeqlockRing {
 public:
  /// One consistent slot: the ring it came from and its payload words.
  struct Entry {
    uint32_t ring = 0;
    uint64_t w[kWords] = {};
  };

  /// Rounds `rings` up to a power of two (at least 1) and `capacity` to a
  /// power of two (at least 2), so ring and slot selection are masks.
  SeqlockRing(size_t rings, size_t capacity)
      : mask_(std::bit_ceil(std::max<size_t>(capacity, 2)) - 1),
        ring_mask_(std::bit_ceil(std::max<size_t>(rings, 1)) - 1),
        rings_(std::make_unique<Ring[]>(ring_mask_ + 1)) {
    for (size_t r = 0; r <= ring_mask_; ++r) {
      rings_[r].slots = std::make_unique<Slot[]>(mask_ + 1);
    }
  }

  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;

  /// Claims the next slot of `ring` (masked) and calls encode(put), where
  /// put(word, value) stores one payload word. A word the encoder skips
  /// keeps the previous occupant's value, so decoders must not read words
  /// their header marks dead. Then prefetches `prefetch_lines` lines of
  /// the ring's next slot for write: slots cycle, so those lines are cold,
  /// and fetching them now gives them a whole inter-record gap to arrive
  /// instead of leaving the misses in the store buffer for the caller's
  /// next locked instruction to wait on.
  template <typename Encode>
  void Record(size_t ring, size_t prefetch_lines, Encode&& encode) {
    Ring& r = rings_[ring & ring_mask_];
    const uint64_t ticket = r.head.fetch_add(1, std::memory_order_relaxed);
    Slot& s = r.slots[ticket & mask_];
    const uint64_t published = 2 * (ticket + 1);
    uint64_t seen = s.stamp.load(std::memory_order_relaxed);
    // The acquire claim orders the previous occupant's payload stores
    // before ours; the release fence orders the odd stamp before our
    // payload stores, pairing with the acquire fence in Drain().
    if ((seen & 1) != 0 || seen >= published ||
        !s.stamp.compare_exchange_strong(seen, published - 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::atomic_thread_fence(std::memory_order_release);
    encode([&s](size_t word, uint64_t v) {
      s.w[word].store(v, std::memory_order_relaxed);
    });
    s.stamp.store(published, std::memory_order_release);
    Prefetch(r.slots[(ticket + 1) & mask_], prefetch_lines);
  }

  /// Prefetches (for write) `lines` lines of the slot `ring`'s next record
  /// will land in. Best-effort: a racing writer may take that ticket.
  void PrefetchNext(size_t ring, size_t lines) const {
    const Ring& r = rings_[ring & ring_mask_];
    Prefetch(r.slots[r.head.load(std::memory_order_relaxed) & mask_], lines);
  }

  /// Every consistent slot of every ring, sorted by payload word 0.
  std::vector<Entry> Drain() const {
    std::vector<Entry> out;
    Entry e;
    for (size_t ri = 0; ri <= ring_mask_; ++ri) {
      e.ring = static_cast<uint32_t>(ri);
      for (uint64_t sl = 0; sl <= mask_; ++sl) {
        const Slot& s = rings_[ri].slots[sl];
        const uint64_t s1 = s.stamp.load(std::memory_order_acquire);
        if (s1 == 0 || (s1 & 1) != 0) continue;  // Empty or being written.
        for (size_t w = 0; w < kWords; ++w) {
          e.w[w] = s.w[w].load(std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.stamp.load(std::memory_order_relaxed) != s1) continue;  // Torn.
        out.push_back(e);
      }
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.w[0] < b.w[0];
    });
    return out;
  }

  /// Records dropped because their slot was owned or already newer.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  size_t rings() const { return ring_mask_ + 1; }
  size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> w[kWords] = {};
  };

  struct alignas(64) Ring {
    std::atomic<uint64_t> head{0};  ///< Next ticket; slot = ticket & mask.
    std::unique_ptr<Slot[]> slots;
  };

  static void Prefetch(const Slot& slot, size_t lines) {
    const char* p = reinterpret_cast<const char*>(&slot);
    for (size_t l = 0; l < lines; ++l) __builtin_prefetch(p + 64 * l, 1, 0);
  }

  const uint64_t mask_;       ///< capacity - 1.
  const uint64_t ring_mask_;  ///< ring count - 1.
  std::unique_ptr<Ring[]> rings_;
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace mdts

#endif  // MDTS_OBS_SEQLOCK_RING_H_
