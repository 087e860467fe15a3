#include "cache/flat_table.h"

namespace s4 {

size_t FlatMap64::CapacityFor(size_t n) {
  size_t capacity = kMinCapacity;
  // Max load factor 3/4: n keys need capacity >= ceil(4n/3).
  while (capacity * 3 < n * 4) capacity *= 2;
  return capacity;
}

void FlatMap64::Reserve(size_t n) {
  const size_t target = CapacityFor(n);
  if (target > vals_.size()) Grow(target);
}

void FlatMap64::Grow(size_t new_capacity) {
  std::vector<int64_t> old_keys = std::move(keys_);
  std::vector<uint32_t> old_vals = std::move(vals_);
  std::vector<uint8_t> old_tags = std::move(tags_);
  keys_ = std::vector<int64_t>(new_capacity);
  vals_ = std::vector<uint32_t>(new_capacity, kNotFound);
  tags_ = std::vector<uint8_t>(new_capacity, 0);
  int shift = 64;
  for (size_t c = new_capacity; c > 1; c >>= 1) --shift;
  shift_ = shift;
  size_ = 0;
  bool inserted = false;
  for (size_t i = 0; i < old_vals.size(); ++i) {
    if (old_tags[i] != 0) {
      FindOrInsert(old_keys[i], old_vals[i], &inserted);
    }
  }
}

}  // namespace s4
