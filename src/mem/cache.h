// Direct-mapped write-through data cache model.
//
// Models the DECstation 5000/200's 64 KB direct-mapped data cache, which is
// NOT coherent with DMA: a DMA transfer into main memory leaves any cached
// copies stale, and a later CPU read returns the stale bytes (paper §2.3).
// The DEC 3000/600's cache, by contrast, is updated during DMA writes.
//
// The cache stores real data. Staleness is therefore real: a CPU read
// through this model after a non-coherent DMA write returns the old bytes,
// UDP checksums over them actually fail, and the lazy-invalidation recovery
// path in the driver is genuinely exercised.
//
// Lines are stored flat: one zero-filled array holds every line's
// {valid, tag} (its pages are touched only as lines are used), and
// one block holds every line's bytes (line i at offset i * line_bytes),
// so a probe is an index computation, not a pointer chase. The block is
// allocated without zero-fill; a line's bytes are only read while it is
// valid, and a line becomes valid only by being filled from memory.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "mem/phys.h"
#include "sim/zeroed.h"

namespace osiris::mem {

/// What a DMA write does to matching cache lines.
enum class DmaCoherence {
  kNonCoherent,  // DECstation 5000/200: cached copies go stale
  kUpdate,       // DEC 3000/600: DMA writes update the cache
};

struct CacheConfig {
  std::uint32_t size_bytes = 64 * 1024;  // 5000/200 D-cache
  std::uint32_t line_bytes = 16;
  DmaCoherence coherence = DmaCoherence::kNonCoherent;
};

/// Cost of a sequence of CPU accesses, in cache events. The machine model
/// converts these to time (hit cycles, miss penalty, memory words moved
/// across the bus).
struct AccessCost {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t mem_words = 0;  // 32-bit words moved to/from main memory

  AccessCost& operator+=(const AccessCost& o) {
    hits += o.hits;
    misses += o.misses;
    mem_words += o.mem_words;
    return *this;
  }
};

class DataCache {
 public:
  DataCache(PhysicalMemory& pm, CacheConfig cfg);

  /// CPU read of [addr, addr+dst.size()): returns cached bytes where lines
  /// hit (possibly stale), fills lines from memory on miss.
  AccessCost cpu_read(PhysAddr addr, std::span<std::uint8_t> dst);

  /// CPU write (write-through, no-allocate): updates memory, and updates a
  /// line only if it already hits.
  AccessCost cpu_write(PhysAddr addr, std::span<const std::uint8_t> src);

  /// DMA write into main memory. Under kNonCoherent, matching lines are
  /// left holding the old data (stale); under kUpdate they are refreshed.
  /// Returns false when the transfer failed (bad address from a corrupted
  /// descriptor, or an injected DMA error) — no bytes move.
  bool dma_write(PhysAddr addr, std::span<const std::uint8_t> src);

  /// Scatter form of dma_write(): each segment is an independent DMA burst
  /// taking `src` bytes in order, with per-segment fault/error semantics
  /// (see PhysicalMemory::dma_scatter) and the same per-segment cache
  /// coherence effects as dma_write(). Returns the number of segments that
  /// transferred.
  std::size_t dma_scatter(std::span<const PhysBuffer> segs,
                          std::span<const std::uint8_t> src);

  /// Invalidates all lines overlapping [addr, addr+len). Returns the number
  /// of 32-bit words in the range (cost: ~1 CPU cycle/word, paper §2.3).
  std::uint64_t invalidate(PhysAddr addr, std::uint32_t len);

  /// Invalidates the whole cache (the DECstation's cache-swap trick; cheap
  /// itself but causes subsequent misses).
  void invalidate_all();

  /// True if any line overlapping the range holds data that differs from
  /// main memory (i.e. a CPU read would return stale bytes).
  [[nodiscard]] bool is_stale(PhysAddr addr, std::uint32_t len) const;

  // Statistics.
  [[nodiscard]] std::uint64_t stale_reads() const { return stale_reads_; }
  [[nodiscard]] std::uint64_t dma_stale_lines() const { return dma_stale_lines_; }
  [[nodiscard]] std::uint64_t lines() const { return static_cast<std::uint64_t>(lines_.size()); }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

 private:
  struct Line {  // zero-filled: invalid, tag 0
    bool valid;
    std::uint32_t tag;
  };

  [[nodiscard]] std::uint32_t index_of(PhysAddr addr) const {
    return (addr / cfg_.line_bytes) % static_cast<std::uint32_t>(lines_.size());
  }
  [[nodiscard]] std::uint32_t tag_of(PhysAddr addr) const {
    return addr / cfg_.line_bytes / static_cast<std::uint32_t>(lines_.size());
  }
  /// True if the line at `base`'s index holds `base`'s line.
  [[nodiscard]] bool hits(PhysAddr base) const {
    const Line& line = lines_[index_of(base)];
    return line.valid && line.tag == tag_of(base);
  }
  /// Bytes of line `idx`.
  [[nodiscard]] std::span<std::uint8_t> data_of(std::uint32_t idx) const {
    return {data_.get() + static_cast<std::size_t>(idx) * cfg_.line_bytes,
            cfg_.line_bytes};
  }

  PhysicalMemory* pm_;
  CacheConfig cfg_;
  sim::ZeroedArray<Line> lines_;
  std::unique_ptr<std::uint8_t[]> data_;  // lines_.size() * line_bytes
  std::uint64_t stale_reads_ = 0;      // CPU reads that returned stale bytes
  std::uint64_t dma_stale_lines_ = 0;  // lines made stale by DMA writes
};

}  // namespace osiris::mem
