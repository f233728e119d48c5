// Open-addressing hash map for integer keys (node addresses and IDs).
//
// The bootstrap protocol keeps several small per-node maps (last-heard
// times, pinned bindings, provenance, suspicion levels, certificate
// indices) that are looked up on every message. A node-based
// std::unordered_map pays one heap node per entry and a pointer chase per
// lookup; this map stores keys and values inline in one power-of-two slot
// array:
//  - linear probing from a multiplicative (Fibonacci) hash of the key;
//  - erase by backward shift, so there are no deletion markers and probe
//    runs never degrade with churn;
//  - `kEmpty` marks a free slot. Inserting the key `kEmpty` itself is
//    legal: it lives in a dedicated side slot outside the array.
//  - storage is allocated on the first insert and doubled above 3/4 load;
//    an empty map owns no heap memory.
//
// Iteration is deliberately not offered: the protocol rules never depend
// on hash order, so anything ordered keeps its own explicit order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bsvc {

template <typename K, typename V, K kEmpty = K{}>
class FlatMap {
 public:
  std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  bool empty() const { return size() == 0; }
  /// Slots in the probe array (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  /// Pointer to the value of `key`, or nullptr. Valid until the next insert
  /// or erase.
  V* find(K key) {
    if (key == kEmpty) return has_empty_key_ ? &empty_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmpty) return nullptr;
    }
  }
  const V* find(K key) const { return const_cast<FlatMap*>(this)->find(key); }
  bool contains(K key) const { return find(key) != nullptr; }

  /// Inserts (key, value) unless `key` is present. Returns the value slot
  /// and whether an insert happened (std::unordered_map::try_emplace).
  std::pair<V*, bool> try_emplace(K key, V value = V{}) {
    if (key == kEmpty) {
      if (has_empty_key_) return {&empty_value_, false};
      has_empty_key_ = true;
      empty_value_ = std::move(value);
      return {&empty_value_, true};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != kEmpty; i = (i + 1) & mask()) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{key, std::move(value)};
    ++size_;
    return {&slots_[i].value, true};
  }

  V& operator[](K key) { return *try_emplace(key).first; }

  /// Removes `key`; returns whether it was present.
  bool erase(K key) {
    if (key == kEmpty) {
      const bool had = has_empty_key_;
      has_empty_key_ = false;
      empty_value_ = V{};
      return had;
    }
    if (slots_.empty()) return false;
    std::size_t hole = home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask()) {
      if (slots_[hole].key == kEmpty) return false;
    }
    // Backward shift: pull each later member of the probe run into the hole
    // unless its home lies cyclically in (hole, j] — it would then become
    // unreachable from its home.
    for (std::size_t j = (hole + 1) & mask(); slots_[j].key != kEmpty; j = (j + 1) & mask()) {
      const std::size_t from_home = (j - home(slots_[j].key)) & mask();
      const std::size_t from_hole = (j - hole) & mask();
      if (from_home >= from_hole) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

 private:
  struct Slot {
    K key = kEmpty;
    V value{};
  };
  static constexpr std::size_t kMinCapacity = 8;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(K key) const {
    // Fibonacci hashing: the top bits of key * 2^64/φ spread sequential
    // addresses and random IDs alike.
    const auto h = static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> shift_);
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask();
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // keys in slots_ (the side slot excluded)
  int shift_ = 64;        // 64 - log2(capacity)
  bool has_empty_key_ = false;
  V empty_value_{};
};

}  // namespace bsvc
