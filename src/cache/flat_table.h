#ifndef S4_CACHE_FLAT_TABLE_H_
#define S4_CACHE_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/simd.h"

namespace s4 {

// Flat open-addressing hash map from int64 keys to uint32 payloads: the
// pk -> dense-row map KfkSnapshot builds its FK row-id columns from.
// Robin-hood displacement bounds probe chains, capacity is a power of
// two, and there is no deletion. Slots live in three parallel arrays —
// an int64 key array, a uint32 value array, and a 1-byte tag array
// holding 7 low hash bits per occupied slot (0 marks empty, so an
// occupied tag always has the 0x80 bit set). Probe walks compare 16 tags
// at a time (src/common/simd.h) and touch the 8-byte key array only on
// tag hits, so a miss typically costs one tag-line load instead of a
// key-line walk.
//
// The value 0xFFFFFFFF is reserved as the empty-slot marker; callers may
// store any other uint32. Allocation is exact (the arrays are sized to
// the capacity, never over-reserved), so ByteSize() reports true heap
// bytes.
class FlatMap64 {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;  // empty-slot marker
  // Bytes per slot across the three parallel arrays (key + value + tag).
  static constexpr size_t kSlotBytes =
      sizeof(int64_t) + sizeof(uint32_t) + sizeof(uint8_t);
  // Tag lanes compared per probe step; capacities are multiples of this
  // (kMinCapacity == 16), so aligned groups never run off the arrays.
  static constexpr size_t kGroupWidth =
      static_cast<size_t>(simd::kGroupWidth);

  FlatMap64() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return vals_.size(); }

  // Grows (never shrinks) so `n` keys fit without further rehashing.
  void Reserve(size_t n);

  // Capacity the table settles on to hold `n` keys at the 3/4 max load
  // factor.
  static size_t CapacityFor(size_t n);

  // Value stored under `key`, or kNotFound. The walk scans 16-tag groups
  // from the key's ideal slot; the robin-hood invariant (a probe chain
  // never crosses an empty slot) lets a miss stop at the first group
  // with an empty lane at or after the ideal position.
  uint32_t Find(int64_t key) const {
    if (size_ == 0) return kNotFound;
    return FindHashed(key, Mix(key));
  }

  // Pointer to the value slot of `key`, inserting `value` if absent
  // (`*inserted` reports which). The pointer is valid until the next
  // insertion that grows the table.
  uint32_t* FindOrInsert(int64_t key, uint32_t value, bool* inserted) {
    if ((size_ + 1) * 4 > vals_.size() * 3) {
      Grow(vals_.empty() ? kMinCapacity : vals_.size() * 2);
    }
    const size_t mask = vals_.size() - 1;
    const uint64_t h = Mix(key);
    size_t i = static_cast<size_t>(h >> shift_);
    size_t dist = 0;
    int64_t k = key;
    uint32_t v = value;
    uint8_t tag = TagOf(h);
    size_t home = kNoSlot;  // where the original key ends up
    while (true) {
      if (tags_[i] == 0) {
        keys_[i] = k;
        vals_[i] = v;
        tags_[i] = tag;
        ++size_;
        *inserted = true;
        return &vals_[home == kNoSlot ? i : home];
      }
      // Tag filter first: an occupied slot holding k must carry k's tag,
      // so the 8-byte key compare runs only on tag hits. Only reachable
      // before any displacement, as before.
      if (tags_[i] == tag && keys_[i] == k) {
        *inserted = false;
        return &vals_[i];
      }
      const size_t d = ProbeDistance(keys_[i], i);
      if (d < dist) {  // rich resident: displace it, keep inserting
        std::swap(k, keys_[i]);
        std::swap(v, vals_[i]);
        std::swap(tag, tags_[i]);
        if (home == kNoSlot) home = i;
        dist = d;
      }
      i = (i + 1) & mask;
      ++dist;
    }
  }

  // Calls f(key, value) for every occupied slot, in slot order.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t i = 0; i < vals_.size(); ++i) {
      if (vals_[i] != kNotFound) f(keys_[i], vals_[i]);
    }
  }

  // Exact heap bytes of the slot arrays (keys + values + tags).
  size_t ByteSize() const {
    return keys_.capacity() * sizeof(int64_t) +
           vals_.capacity() * sizeof(uint32_t) +
           tags_.capacity() * sizeof(uint8_t);
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kNoSlot = ~size_t{0};

  // splitmix64 finalizer: full-avalanche mix so sequential join keys
  // spread over the slot range.
  static uint64_t Mix(int64_t key) {
    uint64_t x = static_cast<uint64_t>(key);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  // 7 low hash bits with the high bit forced on: occupied tags live in
  // [0x80, 0xFF] and can never collide with the empty marker 0. The low
  // bits are independent of the slot index (Ideal uses the top bits), so
  // tags stay discriminating within a probe chain at any capacity.
  static uint8_t TagOf(uint64_t h) {
    return static_cast<uint8_t>(h & 0x7F) | 0x80;
  }

  // Ideal slot from the top bits of the mix (capacity = 1 << (64-shift_)).
  size_t Ideal(int64_t key) const {
    return static_cast<size_t>(Mix(key) >> shift_);
  }

  size_t ProbeDistance(int64_t key, size_t slot) const {
    const size_t mask = vals_.size() - 1;
    return (slot + vals_.size() - Ideal(key)) & mask;
  }

  // The probe walk behind Find, with the hash precomputed.
  // Group-aligned: the first group masks off lanes before the ideal
  // slot, every later group considers all 16. Lanes past a chain's end
  // can hold other chains' residents, but a tag+key double hit there
  // would mean a duplicate key — impossible — and empty lanes can never
  // tag-match (occupied tags have the 0x80 bit set), so scanning whole
  // groups is safe.
  uint32_t FindHashed(int64_t key, uint64_t h) const {
    const size_t mask = vals_.size() - 1;
    const uint8_t tag = TagOf(h);
    const size_t start = static_cast<size_t>(h >> shift_);
    size_t gbase = start & ~(kGroupWidth - 1);
    uint32_t filter = (0xFFFFu << (start - gbase)) & 0xFFFFu;
    while (true) {
      const uint8_t* group = tags_.data() + gbase;
      uint32_t match = simd::MatchByteMask16(group, tag) & filter;
      while (match != 0) {
        const size_t i = gbase + static_cast<size_t>(simd::FirstLane(match));
        if (keys_[i] == key) return vals_[i];
        match = simd::ClearFirstLane(match);
      }
      // An empty lane at or after the ideal slot ends the probe chain
      // (load factor <= 3/4 guarantees one exists somewhere).
      if ((simd::MatchByteMask16(group, 0) & filter) != 0) return kNotFound;
      gbase = (gbase + kGroupWidth) & mask;
      filter = 0xFFFFu;
    }
  }

  void Grow(size_t new_capacity);

  std::vector<int64_t> keys_;
  std::vector<uint32_t> vals_;  // kNotFound marks an empty slot
  std::vector<uint8_t> tags_;   // 0 = empty, else 0x80 | low hash bits
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace s4

#endif  // S4_CACHE_FLAT_TABLE_H_
