// Open-addressed hash map for the per-PDU side tables (reassembly slots,
// driver accumulators). The hot paths here used to be std::map — an
// ordered red-black tree paying pointer-chasing and rebalancing per cell.
// OpenMap is a flat linear-probe table: power-of-two capacity, one
// contiguous key array + value array + state byte per slot, tombstone
// erase. These tables are small (tens to a few thousand in-flight PDUs),
// so growth rehashes in full — the incremental machinery lives in
// flow::FlowTable where the million-entry case is.
//
// Iteration order is a deterministic function of the operation history
// (hash of keys inserted, in insertion-resolved probe order), identical
// across runs of the same per-node event sequence.
// Callers that need history-independent order (none today) must sort.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace osiris::flow {

template <class V>
class OpenMap {
 public:
  OpenMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    const std::size_t i = probe(key);
    return state_[i] == kFull ? &vals_[i] : nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<OpenMap*>(this)->find(key);
  }

  /// Finds or default-constructs; second = freshly made.
  std::pair<V*, bool> emplace(std::uint64_t key) {
    maybe_grow();
    const std::size_t i = probe(key);
    if (state_[i] == kFull) return {&vals_[i], false};
    if (state_[i] == kEmpty) ++used_;
    state_[i] = kFull;
    keys_[i] = key;
    vals_[i] = V{};
    ++size_;
    return {&vals_[i], true};
  }

  V& operator[](std::uint64_t key) { return *emplace(key).first; }

  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    const std::size_t i = probe(key);
    if (state_[i] != kFull) return false;
    state_[i] = kTomb;
    vals_[i] = V{};
    --size_;
    return true;
  }

  void clear() {
    keys_.clear();
    vals_.clear();
    state_.clear();
    size_ = used_ = 0;
  }

  /// f(key, value). Erasing the CURRENT key from inside f is safe
  /// (tombstones don't move surviving slots); inserting is not.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull) f(keys_[i], vals_[i]);
    }
  }
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull) f(keys_[i], vals_[i]);
    }
  }

  /// Erase every entry where pred(key, value) is true; returns count.
  template <class Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull && pred(keys_[i], vals_[i])) {
        state_[i] = kTomb;
        vals_[i] = V{};
        --size_;
        ++n;
      }
    }
    return n;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0, kFull = 1, kTomb = 2;

  static std::uint64_t mix(std::uint64_t k) {
    // splitmix64 finalizer: strong enough that packed (vci, sub) keys
    // spread even when only a few low/high bits vary.
    k ^= k >> 30;
    k *= 0xBF58476D1CE4E5B9ull;
    k ^= k >> 27;
    k *= 0x94D049BB133111EBull;
    k ^= k >> 31;
    return k;
  }

  /// Index of `key` if present, else of the slot an insert should use
  /// (first tombstone on the probe path, or the terminating empty slot).
  std::size_t probe(std::uint64_t key) const {
    assert(!state_.empty());
    const std::size_t mask = state_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    std::size_t first_tomb = state_.size();  // sentinel: none seen
    for (;;) {
      if (state_[i] == kFull && keys_[i] == key) return i;
      if (state_[i] == kEmpty) {
        return first_tomb != state_.size() ? first_tomb : i;
      }
      if (state_[i] == kTomb && first_tomb == state_.size()) first_tomb = i;
      i = (i + 1) & mask;
    }
  }

  void maybe_grow() {
    if (state_.empty()) {
      rehash(16);
      return;
    }
    // Count tombstones against the load factor so probe chains stay short.
    if ((used_ + 1) * 10 > state_.size() * 7) {
      std::size_t cap = state_.size();
      // Grow only if live entries justify it; otherwise same-size rehash
      // just clears tombstones.
      while ((size_ + 1) * 10 > cap * 5) cap *= 2;
      rehash(cap);
    }
  }

  void rehash(std::size_t cap) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    std::vector<std::uint8_t> old_state = std::move(state_);
    keys_.assign(cap, 0);
    vals_.assign(cap, V{});
    state_.assign(cap, kEmpty);
    used_ = size_;
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < old_state.size(); ++i) {
      if (old_state[i] != kFull) continue;
      std::size_t j = static_cast<std::size_t>(mix(old_keys[i])) & mask;
      while (state_[j] == kFull) j = (j + 1) & mask;
      state_[j] = kFull;
      keys_[j] = old_keys[i];
      vals_[j] = std::move(old_vals[i]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> vals_;
  std::vector<std::uint8_t> state_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live + tombstones
};

}  // namespace osiris::flow
