// Unit tests for physical memory, paging, the cache model, and wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "mem/cache.h"
#include "mem/paging.h"
#include "mem/phys.h"
#include "mem/wiring.h"
#include "sim/rng.h"

namespace osiris::mem {
namespace {

TEST(PhysicalMemory, ReadWriteRoundTrip) {
  PhysicalMemory pm(1 << 16);
  std::vector<std::uint8_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  pm.write(1000, data);
  std::vector<std::uint8_t> out(100);
  pm.read(1000, out);
  EXPECT_EQ(data, out);

  // Memory nobody wrote reads as zero: at offset 0, at the last byte, and
  // in the page next to a written one, read across the boundary.
  EXPECT_EQ(pm.byte(0), 0u);
  EXPECT_EQ(pm.byte(static_cast<PhysAddr>(pm.size() - 1)), 0u);
  const std::vector<std::uint8_t> ones(16, 0xff);
  pm.write(2 * kPageSize - 16, ones);  // last 16 bytes of page 1
  std::vector<std::uint8_t> across(32);
  pm.read(2 * kPageSize - 16, across);
  for (std::size_t i = 0; i < across.size(); ++i) {
    EXPECT_EQ(across[i], i < 16 ? 0xff : 0) << "at " << i;
  }
  const auto next_page = pm.view(2 * kPageSize, kPageSize);
  EXPECT_TRUE(std::all_of(next_page.begin(), next_page.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(PhysicalMemory, BoundsChecked) {
  PhysicalMemory pm(4096);
  std::vector<std::uint8_t> buf(10);
  EXPECT_THROW(pm.read(4090, buf), std::out_of_range);
  EXPECT_THROW(pm.write(4096, buf), std::out_of_range);
  EXPECT_NO_THROW(pm.read(4086, buf));
  EXPECT_THROW((void)pm.byte(4096), std::out_of_range);
  EXPECT_THROW((void)pm.view(4090, 10), std::out_of_range);
  EXPECT_THROW((void)pm.view_mut(4096, 1), std::out_of_range);
  EXPECT_NO_THROW((void)pm.view(0, 4096));

  // The DMA entry points report the same overruns as errors, not throws.
  EXPECT_FALSE(pm.dma_read(4090, buf));
  EXPECT_FALSE(pm.dma_write(4096, buf));
  EXPECT_EQ(pm.dma_errors(), 2u);
  EXPECT_TRUE(pm.dma_write(4086, buf));
  EXPECT_EQ(pm.dma_errors(), 2u);
}

TEST(FrameAllocator, InterleavedFramesAreDiscontiguous) {
  // The §2.2 premise: virtually contiguous pages are generally not
  // physically contiguous.
  FrameAllocator fa(1 << 22, /*interleave=*/true, /*seed=*/7);
  int adjacent = 0;
  PhysAddr prev = fa.alloc();
  for (int i = 0; i < 100; ++i) {
    const PhysAddr cur = fa.alloc();
    if (cur == prev + kPageSize) ++adjacent;
    prev = cur;
  }
  EXPECT_LT(adjacent, 10);
}

TEST(FrameAllocator, SequentialModeIsContiguous) {
  FrameAllocator fa(1 << 20, /*interleave=*/false);
  PhysAddr prev = fa.alloc();
  for (int i = 0; i < 10; ++i) {
    const PhysAddr cur = fa.alloc();
    EXPECT_EQ(cur, prev + kPageSize);
    prev = cur;
  }
}

TEST(FrameAllocator, ContiguousAllocationBestEffort) {
  FrameAllocator fa(1 << 20, /*interleave=*/true, 3);
  const auto base = fa.alloc_contiguous(4);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(*base % kPageSize, 0u);
  // The run must actually be reserved: allocating everything else never
  // returns those frames.
  const std::size_t rest = fa.free_frames();
  for (std::size_t i = 0; i < rest; ++i) {
    const PhysAddr f = fa.alloc();
    EXPECT_TRUE(f < *base || f >= *base + 4 * kPageSize);
  }
}

TEST(FrameAllocator, FreeAndReuse) {
  FrameAllocator fa(16 * kPageSize, false);
  std::vector<PhysAddr> all;
  for (int i = 0; i < 16; ++i) all.push_back(fa.alloc());
  EXPECT_THROW(fa.alloc(), std::runtime_error);
  fa.free(all[5]);
  EXPECT_EQ(fa.alloc(), all[5]);
  EXPECT_THROW(fa.free(123456u * 0 + all[0] + kPageSize * 100), std::logic_error);
}

// The FrameAllocator from before stale copies, which erased each frame
// alloc_contiguous() took from the free list: the reference the tests
// below hold the lazy allocator to.
class EraseFrames {
 public:
  EraseFrames(std::size_t mem_bytes, bool interleave, std::uint64_t seed)
      : allocated_(mem_bytes / kPageSize, false) {
    std::vector<std::uint32_t> order(allocated_.size());
    std::iota(order.begin(), order.end(), 0u);
    if (interleave) {
      sim::Rng rng(seed);
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
    }
    free_.assign(order.begin(), order.end());
  }

  PhysAddr alloc() {
    if (free_.empty()) throw std::runtime_error("out of frames");
    const std::uint32_t frame = free_.front();
    free_.pop_front();
    allocated_[frame] = true;
    return frame * kPageSize;
  }

  std::optional<PhysAddr> alloc_contiguous(std::uint32_t n) {
    if (n == 1) return alloc();
    std::uint32_t run = 0;
    for (std::uint32_t f = 0; f < allocated_.size(); ++f) {
      run = allocated_[f] ? 0 : run + 1;
      if (run == n) {
        const std::uint32_t first = f + 1 - n;
        for (std::uint32_t g = first; g <= f; ++g) {
          allocated_[g] = true;
          free_.erase(std::find(free_.begin(), free_.end(), g));
        }
        return first * kPageSize;
      }
    }
    return std::nullopt;
  }

  void free(PhysAddr frame_base) {
    allocated_[frame_base / kPageSize] = false;
    free_.push_back(frame_base / kPageSize);
  }

  [[nodiscard]] std::size_t free_frames() const { return free_.size(); }

 private:
  std::deque<std::uint32_t> free_;
  std::vector<bool> allocated_;
};

TEST(FrameAllocator, LazyContiguousRemovalMatchesErase) {
  // Seeded interleave of alloc, alloc_contiguous and free on a small pool,
  // so contiguous frames are freed and re-taken while their stale copies
  // are still queued, and the pool runs dry often.
  constexpr std::size_t kFrames = 64;
  FrameAllocator fa(kFrames * kPageSize, /*interleave=*/true, /*seed=*/5);
  EraseFrames ref(kFrames * kPageSize, true, 5);
  std::vector<PhysAddr> held;
  std::vector<bool> is_held(kFrames, false);
  sim::Rng rng(29);
  int contiguous = 0, dry = 0;
  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.4) {
      if (ref.free_frames() == 0) {
        EXPECT_THROW(fa.alloc(), std::runtime_error) << "step " << step;
        ++dry;
      } else {
        const PhysAddr f = fa.alloc();
        ASSERT_EQ(f, ref.alloc()) << "step " << step;
        held.push_back(f);
        is_held[f / kPageSize] = true;
      }
    } else if (dice < 0.6) {
      const auto n = static_cast<std::uint32_t>(2 + rng.below(4));
      const std::optional<PhysAddr> base = fa.alloc_contiguous(n);
      ASSERT_EQ(base, ref.alloc_contiguous(n)) << "step " << step;
      if (base) {
        ++contiguous;
        for (std::uint32_t i = 0; i < n; ++i) {
          held.push_back(*base + i * kPageSize);
          is_held[*base / kPageSize + i] = true;
        }
      }
    } else if (dice < 0.95) {
      if (held.empty()) continue;
      const std::size_t i = rng.below(held.size());
      const PhysAddr f = held[i];
      held[i] = held.back();
      held.pop_back();
      is_held[f / kPageSize] = false;
      fa.free(f);
      ref.free(f);
    } else {
      // A bad free: a frame nobody holds, or one past the end of memory.
      const auto frame = static_cast<std::uint32_t>(rng.below(kFrames + 1));
      if (frame == kFrames || !is_held[frame]) {
        EXPECT_THROW(fa.free(frame * kPageSize), std::logic_error)
            << "step " << step;
      }
    }
    ASSERT_EQ(fa.free_frames(), ref.free_frames()) << "step " << step;
  }
  EXPECT_GT(contiguous, 100);
  EXPECT_GT(dry, 10);
}

TEST(FrameAllocator, RepeatedContiguousRetakesMatchErase) {
  // One run freed and re-taken 300 times piles up stale copies of the same
  // frames: more than a per-frame byte counts, and (with a big enough
  // pool) never more than the live entries.
  constexpr std::size_t kFrames = 4096;
  FrameAllocator fa(kFrames * kPageSize, /*interleave=*/true, /*seed=*/9);
  EraseFrames ref(kFrames * kPageSize, true, 9);
  for (int cycle = 0; cycle < 300; ++cycle) {
    const std::optional<PhysAddr> base = fa.alloc_contiguous(2);
    ASSERT_EQ(base, ref.alloc_contiguous(2)) << "cycle " << cycle;
    ASSERT_TRUE(base.has_value());
    ASSERT_EQ(fa.alloc(), ref.alloc()) << "cycle " << cycle;
    fa.free(*base);
    ref.free(*base);
    fa.free(*base + kPageSize);
    ref.free(*base + kPageSize);
    ASSERT_EQ(fa.free_frames(), ref.free_frames()) << "cycle " << cycle;
  }
  for (std::size_t i = ref.free_frames(); i > 0; --i) {
    ASSERT_EQ(fa.alloc(), ref.alloc());
  }
  EXPECT_THROW(fa.alloc(), std::runtime_error);
}

TEST(FrameAllocator, OnlyStaleCopiesLeftIsOutOfFrames) {
  FrameAllocator fa(8 * kPageSize, /*interleave=*/false);
  std::vector<PhysAddr> first;
  for (int i = 0; i < 4; ++i) first.push_back(fa.alloc());
  for (const PhysAddr f : first) fa.free(f);  // queue: 4 5 6 7 0 1 2 3
  ASSERT_EQ(fa.alloc_contiguous(4), std::optional<PhysAddr>{0});
  EXPECT_EQ(fa.free_frames(), 4u);
  for (PhysAddr f = 4 * kPageSize; f < 8 * kPageSize; f += kPageSize) {
    EXPECT_EQ(fa.alloc(), f);
  }
  // Frames 0-3 are still queued, but only as stale copies.
  EXPECT_EQ(fa.free_frames(), 0u);
  EXPECT_THROW(fa.alloc(), std::runtime_error);
  EXPECT_THROW(fa.free(8 * kPageSize), std::logic_error);  // past the end
  fa.free(2 * kPageSize);
  EXPECT_THROW(fa.free(2 * kPageSize), std::logic_error);  // double free
  EXPECT_EQ(fa.alloc(), 2 * kPageSize);
}

TEST(AddressSpace, TranslateAndScatter) {
  PhysicalMemory pm(1 << 22);
  FrameAllocator fa(1 << 22, true, 11);
  AddressSpace as(pm, fa, "t");
  const VirtAddr va = as.alloc(3 * kPageSize);
  // Contiguous virtually; scatter yields >= 1 physically contiguous runs
  // covering all bytes.
  const auto sc = as.scatter(va, 3 * kPageSize);
  std::uint32_t total = 0;
  for (const auto& pb : sc) total += pb.len;
  EXPECT_EQ(total, 3 * kPageSize);
  EXPECT_GE(sc.size(), 1u);
  EXPECT_LE(sc.size(), 3u);
}

TEST(AddressSpace, UnalignedBufferScatterMatchesPaperFigure1) {
  // A data portion not aligned with page boundaries occupies
  // ceil((n-1)/page)+1 pages (paper §2.2).
  PhysicalMemory pm(1 << 22);
  FrameAllocator fa(1 << 22, true, 13);
  AddressSpace as(pm, fa, "t");
  const std::uint32_t off = 100;
  const std::uint32_t len = 2 * kPageSize;  // 2 pages of data, unaligned
  const VirtAddr va = as.alloc(len, off);
  const auto sc = as.scatter(va, len);
  // Spans 3 pages; with an interleaved allocator that is almost surely 3
  // physical buffers.
  std::uint32_t total = 0;
  for (const auto& pb : sc) total += pb.len;
  EXPECT_EQ(total, len);
  EXPECT_EQ(sc.size(), 3u);
}

TEST(AddressSpace, WriteReadThroughPageTable) {
  PhysicalMemory pm(1 << 22);
  FrameAllocator fa(1 << 22, true, 17);
  AddressSpace as(pm, fa, "t");
  const VirtAddr va = as.alloc(10000, 123);
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  as.write(va, data);
  std::vector<std::uint8_t> out(10000);
  as.read(va, out);
  EXPECT_EQ(data, out);
}

TEST(AddressSpace, UnmappedTranslateThrows) {
  PhysicalMemory pm(1 << 20);
  FrameAllocator fa(1 << 20);
  AddressSpace as(pm, fa, "t");
  EXPECT_THROW((void)as.translate(0x100), std::out_of_range);
  EXPECT_FALSE(as.mapped(0x100));
}

TEST(AddressSpace, MapFrameSharesPhysicalPage) {
  PhysicalMemory pm(1 << 20);
  FrameAllocator fa(1 << 20);
  AddressSpace a(pm, fa, "a");
  AddressSpace b(pm, fa, "b");
  const PhysAddr frame = fa.alloc();
  const VirtAddr va = a.map_frame(frame);
  const VirtAddr vb = b.map_frame(frame);
  std::vector<std::uint8_t> data{1, 2, 3, 4};
  a.write(va, data);
  std::vector<std::uint8_t> out(4);
  b.read(vb, out);
  EXPECT_EQ(out, data);
  fa.free(frame);
}

TEST(AddressSpace, PreferContiguousFallsBack) {
  FrameAllocator fa(8 * kPageSize, false);
  PhysicalMemory pm(8 * kPageSize);
  AddressSpace as(pm, fa, "t");
  bool contig = false;
  as.alloc_prefer_contiguous(3 * kPageSize, &contig);
  EXPECT_TRUE(contig);
  // Exhaust so no run of 4 remains, then ask again.
  while (fa.free_frames() > 3) fa.alloc();
  bool contig2 = true;
  as.alloc_prefer_contiguous(3 * kPageSize, &contig2);
  EXPECT_TRUE(contig2);  // 3 sequential frames remain in order
}

// ---------------------------------------------------------------- cache

CacheConfig small_cache(DmaCoherence c) { return {1024, 16, c}; }

TEST(DataCache, ReadMissFillsLine) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> data{9, 8, 7, 6};
  pm.write(64, data);
  std::vector<std::uint8_t> out(4);
  auto c1 = dc.cpu_read(64, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(c1.misses, 1u);
  EXPECT_EQ(c1.mem_words, 4u);  // 16-byte line fill
  auto c2 = dc.cpu_read(64, out);
  EXPECT_EQ(c2.hits, 1u);
  EXPECT_EQ(c2.misses, 0u);
}

TEST(DataCache, NonCoherentDmaLeavesStaleData) {
  // The paper's §2.3 scenario: cached bytes survive a DMA overwrite.
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> v1{1, 1, 1, 1}, v2{2, 2, 2, 2};
  pm.write(128, v1);
  std::vector<std::uint8_t> out(4);
  dc.cpu_read(128, out);  // cache the line
  dc.dma_write(128, v2);  // memory now v2, cache still v1
  EXPECT_TRUE(dc.is_stale(128, 4));
  dc.cpu_read(128, out);
  EXPECT_EQ(out, v1);  // stale!
  EXPECT_GE(dc.stale_reads(), 1u);
  EXPECT_GE(dc.dma_stale_lines(), 1u);
  // Invalidation recovers.
  const auto words = dc.invalidate(128, 4);
  EXPECT_EQ(words, 1u);
  dc.cpu_read(128, out);
  EXPECT_EQ(out, v2);
}

TEST(DataCache, UpdateCoherenceRefreshesCache) {
  // DEC 3000/600 behaviour: DMA writes update the cache.
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kUpdate));
  std::vector<std::uint8_t> v1{1, 1, 1, 1}, v2{2, 2, 2, 2};
  pm.write(128, v1);
  std::vector<std::uint8_t> out(4);
  dc.cpu_read(128, out);
  dc.dma_write(128, v2);
  EXPECT_FALSE(dc.is_stale(128, 4));
  dc.cpu_read(128, out);
  EXPECT_EQ(out, v2);
  EXPECT_EQ(dc.stale_reads(), 0u);
}

TEST(DataCache, WriteThroughUpdatesMemoryAndHitLines) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> out(4);
  dc.cpu_read(256, out);  // cache the line
  std::vector<std::uint8_t> v{5, 6, 7, 8};
  dc.cpu_write(256, v);
  EXPECT_EQ(pm.byte(256), 5);  // memory updated immediately
  dc.cpu_read(256, out);
  EXPECT_EQ(out, v);  // and the cached copy as well
  EXPECT_FALSE(dc.is_stale(256, 4));
}

TEST(DataCache, DirectMappedConflictEviction) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));  // 64 lines
  std::vector<std::uint8_t> out(4);
  dc.cpu_read(0, out);
  auto c = dc.cpu_read(0 + 1024, out);  // same index, different tag
  EXPECT_EQ(c.misses, 1u);
  c = dc.cpu_read(0, out);  // evicted: miss again
  EXPECT_EQ(c.misses, 1u);
}

TEST(DataCache, InvalidateAllCostsNothingButCausesMisses) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> out(16);
  dc.cpu_read(0, out);
  dc.invalidate_all();
  auto c = dc.cpu_read(0, out);
  EXPECT_EQ(c.misses, 1u);
}

TEST(DataCache, ReadSpanningLines) {
  PhysicalMemory pm(1 << 16);
  DataCache dc(pm, small_cache(DmaCoherence::kNonCoherent));
  std::vector<std::uint8_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  pm.write(8, data);  // unaligned, spans 7 lines
  std::vector<std::uint8_t> out(100);
  auto c = dc.cpu_read(8, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(c.misses, 7u);
}

// --------------------------------------------------------------- wiring

TEST(PageWiring, WireUnwireCounts) {
  PageWiring w;
  w.wire(0x5000);
  w.wire(0x5100);  // same page
  EXPECT_TRUE(w.is_wired(0x5abc));
  EXPECT_EQ(w.wired_frames(), 1u);
  w.unwire(0x5000);
  EXPECT_TRUE(w.is_wired(0x5abc));  // still one wiring left
  w.unwire(0x5000);
  EXPECT_FALSE(w.is_wired(0x5abc));
  EXPECT_EQ(w.wire_ops(), 2u);
  EXPECT_EQ(w.unwire_ops(), 2u);
}

TEST(PageWiring, UnwireUnwiredThrows) {
  PageWiring w;
  EXPECT_THROW(w.unwire(0x1000), std::logic_error);
}

TEST(PageWiring, BufferSpanningPages) {
  PageWiring w;
  std::vector<PhysBuffer> bufs{{kPageSize - 100, 300}};  // spans 2 pages
  w.wire_buffers(bufs);
  EXPECT_TRUE(w.is_wired(0));
  EXPECT_TRUE(w.is_wired(kPageSize));
  EXPECT_EQ(w.wired_frames(), 2u);
  w.unwire_buffers(bufs);
  EXPECT_EQ(w.wired_frames(), 0u);
}

}  // namespace
}  // namespace osiris::mem
