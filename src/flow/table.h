// Cache-conscious flow table for million-VCI early demultiplexing.
//
// The Rx firmware's per-cell work used to be five separate hash-map
// lookups (mapping, quota, held count, router, quarantine). At millions of
// concurrent VCIs those maps are five dependent cache misses per cell. The
// FlowTable replaces them with one open-addressed, fixed-arity, multi-way
// table: each bucket is exactly one 64-byte cache line holding eight
// (key, slot) pairs, so a demux probe touches one line and then reads one
// consolidated entry out of a stable slab (see DESIGN.md §13).
//
//  * Keys are 24-bit VCIs (or any value < 2^32 - 1); the full key is
//    stored in the bucket, so a tag match IS the key match — no secondary
//    verification read.
//  * Entries live in a slab indexed by bucket slots; slots are stable
//    across rehash, so entry state (quarantine bit, held counts, router)
//    survives growth untouched.
//  * Growth is power-of-two with INCREMENTAL rehash: grow() swaps in a
//    double-size bucket array and migrates a couple of old buckets per
//    subsequent operation, so no single cell ever pays an O(n) stall.
//    Because the hash uses top bits, old bucket i splits exactly into new
//    buckets 2i and 2i+1, and a lookup during migration probes at most
//    one extra line.
//  * A full target bucket (ninth colliding key) spills to a small
//    overflow list that is drained at the next growth; lookups scan it
//    only while it is non-empty, and its peak size is exported in stats.
//
// Iteration (for_each) walks the slab in slot order — a deterministic
// order that depends only on the operation history, never on hashing —
// which is what keeps repeated simulations bit-identical.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace osiris::flow {

/// Raw counters, cheap enough to maintain on the hot path; exported via
/// the obs registry (occupancy, probe length, rehash activity).
struct TableStats {
  std::uint64_t lookups = 0;          ///< find/insert/erase key searches
  std::uint64_t probed_buckets = 0;   ///< cache lines examined across lookups
  std::uint64_t max_probe = 0;        ///< worst single-lookup line count
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t rehashes = 0;         ///< growth events
  std::uint64_t migrated_buckets = 0; ///< buckets drained incrementally
  std::uint64_t forced_drains = 0;    ///< migrations finished non-incrementally
  std::uint64_t overflow_peak = 0;    ///< worst overflow-list length
};

template <class Entry>
class FlowTable {
 public:
  static constexpr std::uint32_t kWays = 8;
  static constexpr std::uint32_t kEmptyKey = 0xFFFFFFFFu;

  explicit FlowTable(std::uint32_t initial_buckets = 16) {
    std::uint32_t n = 1;
    unsigned log2 = 0;
    while (n < initial_buckets) {
      n <<= 1;
      ++log2;
    }
    shift_ = 32 - log2;
    buckets_.assign(n, empty_bucket());
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  /// Entry slots the current (new) bucket array can hold.
  [[nodiscard]] std::size_t capacity() const { return buckets_.size() * kWays; }
  [[nodiscard]] double load() const {
    return capacity() == 0 ? 0.0
                           : static_cast<double>(size_) /
                                 static_cast<double>(capacity());
  }
  [[nodiscard]] bool migration_pending() const { return !old_.empty(); }
  [[nodiscard]] std::size_t overflow_size() const { return overflow_.size(); }
  [[nodiscard]] const TableStats& stats() const { return stats_; }

  /// One-probe lookup; advances any pending migration by one bucket so
  /// lookup-heavy phases still converge to a single-table state.
  Entry* find(std::uint32_t key) {
    step_migration(1);
    return locate(key);
  }

  /// Const lookup: probes but never mutates (no migration step).
  const Entry* find(std::uint32_t key) const {
    return const_cast<FlowTable*>(this)->locate(key);
  }

  /// Finds or default-constructs the entry for `key`; second = freshly made.
  std::pair<Entry*, bool> insert(std::uint32_t key) {
    assert(key != kEmptyKey);
    step_migration(2);
    if (Entry* e = locate(key)) return {e, false};
    // Load-factor trigger (~75% of the new array) keeps full buckets rare.
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    for (;;) {
      Bucket& b = buckets_[index_of(mix(key), shift_)];
      for (std::uint32_t w = 0; w < kWays; ++w) {
        if (b.key[w] == kEmptyKey) {
          const std::uint32_t s = alloc_slot(key);
          b.key[w] = key;
          b.slot[w] = s;
          ++size_;
          ++stats_.inserts;
          return {&slab_[s], true};
        }
      }
      grow();  // ninth colliding key: double and retry (overflow only
               // arises for keys displaced DURING a migration)
    }
  }

  bool erase(std::uint32_t key) {
    step_migration(2);
    ++stats_.lookups;
    const std::uint32_t h = mix(key);
    if (erase_from(buckets_[index_of(h, shift_)], key)) return true;
    if (!old_.empty()) {
      const std::uint32_t oi = index_of(h, old_shift_);
      if (oi >= migrate_pos_ && erase_from(old_[oi], key)) return true;
    }
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
      if (overflow_[i].first == key) {
        free_slot(overflow_[i].second);
        overflow_.erase(overflow_.begin() + static_cast<std::ptrdiff_t>(i));
        --size_;
        ++stats_.erases;
        return true;
      }
    }
    return false;
  }

  /// Deterministic iteration in slab-slot order. `f(key, entry)` may erase
  /// the CURRENT key; it must not insert.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t s = 0; s < slab_.size(); ++s) {
      if (slab_key_[s] != kEmptyKey) f(slab_key_[s], slab_[s]);
    }
  }
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t s = 0; s < slab_.size(); ++s) {
      if (slab_key_[s] != kEmptyKey) f(slab_key_[s], slab_[s]);
    }
  }

  /// Control-plane pre-sizing: grows (finishing migrations eagerly) until
  /// `n` entries fit below the load trigger. Not for the per-cell path.
  void reserve(std::size_t n) {
    while ((n + 1) * 4 > capacity() * 3) grow();
    finish_migration();
    old_.clear();
  }

 private:
  struct alignas(64) Bucket {
    std::uint32_t key[kWays];
    std::uint32_t slot[kWays];
  };
  static_assert(sizeof(Bucket) == 64, "bucket must be one cache line");

  static Bucket empty_bucket() {
    Bucket b;
    for (std::uint32_t w = 0; w < kWays; ++w) {
      b.key[w] = kEmptyKey;
      b.slot[w] = 0;
    }
    return b;
  }

  /// Fibonacci multiplicative hash; index from the TOP bits so doubling
  /// splits old bucket i into new buckets 2i / 2i+1.
  static std::uint32_t mix(std::uint32_t k) { return k * 0x9E3779B1u; }
  static std::uint32_t index_of(std::uint32_t h, unsigned shift) {
    return shift >= 32 ? 0 : h >> shift;
  }

  void note_probes(std::uint64_t probes) {
    stats_.probed_buckets += probes;
    if (probes > stats_.max_probe) stats_.max_probe = probes;
  }

  Entry* locate(std::uint32_t key) {
    ++stats_.lookups;
    const std::uint32_t h = mix(key);
    std::uint64_t probes = 1;
    Bucket& b = buckets_[index_of(h, shift_)];
    for (std::uint32_t w = 0; w < kWays; ++w) {
      if (b.key[w] == key) {
        note_probes(probes);
        return &slab_[b.slot[w]];
      }
      if (b.key[w] == kEmptyKey) break;  // ways are prefix-packed
    }
    if (!old_.empty()) {
      const std::uint32_t oi = index_of(h, old_shift_);
      if (oi >= migrate_pos_) {
        ++probes;
        Bucket& ob = old_[oi];
        for (std::uint32_t w = 0; w < kWays; ++w) {
          if (ob.key[w] == key) {
            note_probes(probes);
            return &slab_[ob.slot[w]];
          }
          if (ob.key[w] == kEmptyKey) break;
        }
      }
    }
    if (!overflow_.empty()) {
      ++probes;
      for (const auto& [k, s] : overflow_) {
        if (k == key) {
          note_probes(probes);
          return &slab_[s];
        }
      }
    }
    note_probes(probes);
    return nullptr;
  }

  bool erase_from(Bucket& b, std::uint32_t key) {
    for (std::uint32_t w = 0; w < kWays; ++w) {
      if (b.key[w] != key) continue;
      free_slot(b.slot[w]);
      // Compact so occupied ways stay a prefix (lets lookups early-break).
      std::uint32_t last = w;
      for (std::uint32_t v = w + 1; v < kWays && b.key[v] != kEmptyKey; ++v) {
        last = v;
      }
      b.key[w] = b.key[last];
      b.slot[w] = b.slot[last];
      b.key[last] = kEmptyKey;
      b.slot[last] = 0;
      --size_;
      ++stats_.erases;
      return true;
    }
    return false;
  }

  std::uint32_t alloc_slot(std::uint32_t key) {
    std::uint32_t s;
    if (!free_slots_.empty()) {
      s = free_slots_.back();
      free_slots_.pop_back();
      slab_[s] = Entry{};
    } else {
      s = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
      slab_key_.push_back(kEmptyKey);
    }
    slab_key_[s] = key;
    return s;
  }

  void free_slot(std::uint32_t s) {
    slab_[s] = Entry{};
    slab_key_[s] = kEmptyKey;
    free_slots_.push_back(s);
  }

  void place_new(std::uint32_t key, std::uint32_t slot) {
    Bucket& b = buckets_[index_of(mix(key), shift_)];
    for (std::uint32_t w = 0; w < kWays; ++w) {
      if (b.key[w] == kEmptyKey) {
        b.key[w] = key;
        b.slot[w] = slot;
        return;
      }
    }
    overflow_.emplace_back(key, slot);
    if (overflow_.size() > stats_.overflow_peak) {
      stats_.overflow_peak = overflow_.size();
    }
  }

  void migrate_bucket(std::uint32_t i) {
    Bucket& ob = old_[i];
    for (std::uint32_t w = 0; w < kWays && ob.key[w] != kEmptyKey; ++w) {
      place_new(ob.key[w], ob.slot[w]);
    }
    ob = empty_bucket();
    ++stats_.migrated_buckets;
  }

  void step_migration(std::uint32_t n) {
    if (old_.empty()) return;
    while (n-- > 0 && migrate_pos_ < old_.size()) {
      migrate_bucket(migrate_pos_++);
    }
    if (migrate_pos_ >= old_.size()) {
      old_.clear();
      migrate_pos_ = 0;
      drain_overflow();
    }
  }

  void finish_migration() {
    if (old_.empty()) return;
    if (migrate_pos_ < old_.size()) ++stats_.forced_drains;
    while (migrate_pos_ < old_.size()) migrate_bucket(migrate_pos_++);
    old_.clear();
    migrate_pos_ = 0;
    drain_overflow();
  }

  void drain_overflow() {
    if (overflow_.empty()) return;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> still;
    for (const auto& [key, slot] : overflow_) {
      Bucket& b = buckets_[index_of(mix(key), shift_)];
      bool placed = false;
      for (std::uint32_t w = 0; w < kWays; ++w) {
        if (b.key[w] == kEmptyKey) {
          b.key[w] = key;
          b.slot[w] = slot;
          placed = true;
          break;
        }
      }
      if (!placed) still.emplace_back(key, slot);
    }
    overflow_ = std::move(still);
  }

  void grow() {
    finish_migration();
    old_ = std::move(buckets_);
    old_shift_ = shift_;
    shift_ -= 1;
    buckets_.assign(old_.size() * 2, empty_bucket());
    migrate_pos_ = 0;
    ++stats_.rehashes;
  }

  std::vector<Bucket> buckets_;  // current array; all inserts land here
  unsigned shift_ = 32;          // index = hash >> shift_
  std::vector<Bucket> old_;      // non-empty while a rehash is in flight
  unsigned old_shift_ = 32;
  std::uint32_t migrate_pos_ = 0;
  // Keys displaced into a full new-table bucket during migration (rare).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> overflow_;

  std::vector<Entry> slab_;               // entries, stable slot indices
  std::vector<std::uint32_t> slab_key_;   // kEmptyKey = free slot
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
  TableStats stats_;
};

}  // namespace osiris::flow
