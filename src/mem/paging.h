// Page-based virtual memory: frame allocator, address spaces, scatter lists.
//
// The paper's §2.2 problem — contiguous virtual pages are generally NOT
// contiguous in physical memory, so a PDU fragments into many physical
// buffers — only manifests if the frame allocator actually hands out
// non-adjacent frames. The allocator therefore interleaves its free list by
// default (modelling a long-running system's fragmented memory) and offers
// best-effort contiguous allocation as the paper's proposed mitigation.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/phys.h"

namespace osiris::mem {

using VirtAddr = std::uint32_t;

constexpr std::uint32_t kPageSize = 4096;  // paper's example page size
constexpr std::uint32_t kPageShift = 12;

constexpr std::uint32_t page_of(std::uint32_t addr) { return addr >> kPageShift; }
constexpr std::uint32_t page_offset(std::uint32_t addr) { return addr & (kPageSize - 1); }
constexpr std::uint32_t page_base(std::uint32_t addr) { return addr & ~(kPageSize - 1); }

/// Allocates physical page frames from a shared pool.
class FrameAllocator {
 public:
  /// `interleave`: if true (default), the free list is shuffled so that
  /// successive allocations are physically discontiguous, as on a
  /// long-running host. If false, frames come out in ascending order.
  FrameAllocator(std::size_t mem_bytes, bool interleave = true,
                 std::uint64_t seed = 1);

  /// Allocates one frame; returns its physical base address.
  PhysAddr alloc();

  /// Best-effort allocation of `n` physically contiguous frames (§2.2's
  /// proposed OS support). Returns base address or nullopt.
  std::optional<PhysAddr> alloc_contiguous(std::uint32_t n);

  void free(PhysAddr frame_base);

  [[nodiscard]] std::size_t free_frames() const {
    return free_.size() - stale_total_;
  }
  [[nodiscard]] std::size_t total_frames() const { return total_frames_; }

 private:
  /// Drops every stale copy from the free list in one pass.
  void purge_stale();

  std::size_t total_frames_;
  std::deque<std::uint32_t> free_;            // frame numbers
  std::vector<bool> allocated_;               // by frame number
  // Frames alloc_contiguous() took stay queued as stale copies that alloc()
  // skips: per frame, how many of its earliest queued copies are stale.
  std::vector<std::uint8_t> stale_;
  std::size_t stale_total_ = 0;
};

/// A protection domain's virtual address space: a page table mapping
/// virtual pages to physical frames.
class AddressSpace {
 public:
  AddressSpace(PhysicalMemory& pm, FrameAllocator& fa, std::string name);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Allocates `len` bytes of virtually contiguous memory starting at a
  /// page boundary plus `offset_in_page` (non-zero models unaligned
  /// application buffers). Returns the virtual address of the first byte.
  VirtAddr alloc(std::uint32_t len, std::uint32_t offset_in_page = 0);

  /// Like alloc(), but asks the frame allocator for physically contiguous
  /// frames; falls back to ordinary allocation when unavailable. Sets
  /// `*contiguous` to whether the fast path succeeded, if non-null.
  VirtAddr alloc_prefer_contiguous(std::uint32_t len, bool* contiguous = nullptr);

  /// Maps an existing physical frame at the next free virtual page (used
  /// by fbufs to share a frame across domains). Returns the virtual base.
  VirtAddr map_frame(PhysAddr frame_base);

  /// Removes the mapping of the virtual page containing `va`. The frame is
  /// not freed (caller owns it).
  void unmap_page(VirtAddr va);

  /// Translates a virtual address. Throws if unmapped.
  [[nodiscard]] PhysAddr translate(VirtAddr va) const;

  [[nodiscard]] bool mapped(VirtAddr va) const;

  /// Produces the physical buffer list for [va, va+len): one entry per run
  /// of physically contiguous bytes. This is exactly what the driver hands
  /// to the board (paper §2.2, Figure 1).
  [[nodiscard]] std::vector<PhysBuffer> scatter(VirtAddr va, std::uint32_t len) const;

  // Data access through the page table (no cache model; see CachedView for
  // cost-accounted CPU access).
  void write(VirtAddr va, std::span<const std::uint8_t> src);
  void read(VirtAddr va, std::span<std::uint8_t> dst) const;

  [[nodiscard]] PhysicalMemory& physical() { return *pm_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  VirtAddr map_pages_at_cursor(const std::vector<PhysAddr>& frames,
                               std::uint32_t offset_in_page,
                               std::uint32_t len);

  PhysicalMemory* pm_;
  FrameAllocator* fa_;
  std::string name_;
  std::unordered_map<std::uint32_t, PhysAddr> table_;  // vpage -> frame base
  std::uint32_t next_vpage_ = 1;  // page 0 kept unmapped (null page)
  std::vector<PhysAddr> owned_frames_;
};

}  // namespace osiris::mem
