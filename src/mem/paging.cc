#include "mem/paging.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/rng.h"

namespace osiris::mem {

FrameAllocator::FrameAllocator(std::size_t mem_bytes, bool interleave,
                               std::uint64_t seed)
    : total_frames_(mem_bytes / kPageSize),
      allocated_(total_frames_, false),
      stale_(total_frames_, 0) {
  std::vector<std::uint32_t> order(total_frames_);
  for (std::size_t i = 0; i < total_frames_; ++i) order[i] = static_cast<std::uint32_t>(i);
  if (interleave) {
    // Fisher-Yates with the deterministic sim RNG: models the arbitrary
    // frame ordering of a long-running system's free list.
    sim::Rng rng(seed);
    for (std::size_t i = total_frames_; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
  }
  free_.assign(order.begin(), order.end());
}

PhysAddr FrameAllocator::alloc() {
  while (true) {
    if (free_.empty()) throw std::runtime_error("FrameAllocator: out of frames");
    const std::uint32_t frame = free_.front();
    free_.pop_front();
    if (stale_[frame] == 0) {
      allocated_[frame] = true;
      return frame * kPageSize;
    }
    --stale_[frame];
    --stale_total_;
  }
}

std::optional<PhysAddr> FrameAllocator::alloc_contiguous(std::uint32_t n) {
  if (n == 0) return std::nullopt;
  if (n == 1) return alloc();
  // Best-effort scan for a run of n free frames (the paper's proposed OS
  // support is explicitly best-effort).
  std::uint32_t run = 0;
  for (std::uint32_t f = 0; f < total_frames_; ++f) {
    run = allocated_[f] ? 0 : run + 1;
    if (run == n) {
      // Leave the taken frames queued as stale copies instead of erasing
      // them: a frame's earliest queued copy is always its stale one, so
      // skipping it in alloc() yields exactly the erase order.
      const std::uint32_t first = f + 1 - n;
      for (std::uint32_t g = first; g <= f; ++g) {
        if (stale_[g] == UINT8_MAX) purge_stale();
        allocated_[g] = true;
        ++stale_[g];
        ++stale_total_;
      }
      // Bound the queue: stale copies never outnumber live ones.
      if (2 * stale_total_ > free_.size()) purge_stale();
      return first * kPageSize;
    }
  }
  return std::nullopt;
}

void FrameAllocator::purge_stale() {
  std::size_t kept = 0;
  for (const std::uint32_t frame : free_) {
    if (stale_[frame] > 0) {
      --stale_[frame];
    } else {
      free_[kept++] = frame;
    }
  }
  free_.resize(kept);
  stale_total_ = 0;
}

void FrameAllocator::free(PhysAddr frame_base) {
  const std::uint32_t frame = frame_base / kPageSize;
  if (frame >= total_frames_ || !allocated_[frame]) {
    throw std::logic_error("FrameAllocator: bad free");
  }
  allocated_[frame] = false;
  free_.push_back(frame);
}

AddressSpace::AddressSpace(PhysicalMemory& pm, FrameAllocator& fa, std::string name)
    : pm_(&pm), fa_(&fa), name_(std::move(name)) {}

AddressSpace::~AddressSpace() {
  for (const PhysAddr f : owned_frames_) fa_->free(f);
}

VirtAddr AddressSpace::map_pages_at_cursor(const std::vector<PhysAddr>& frames,
                                           std::uint32_t offset_in_page,
                                           std::uint32_t len) {
  const std::uint32_t first_vpage = next_vpage_;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    table_[first_vpage + static_cast<std::uint32_t>(i)] = frames[i];
  }
  next_vpage_ += static_cast<std::uint32_t>(frames.size());
  (void)len;
  return (first_vpage << kPageShift) + offset_in_page;
}

VirtAddr AddressSpace::alloc(std::uint32_t len, std::uint32_t offset_in_page) {
  if (len == 0) throw std::invalid_argument("AddressSpace::alloc: zero length");
  if (offset_in_page >= kPageSize) {
    throw std::invalid_argument("AddressSpace::alloc: offset >= page size");
  }
  const std::uint32_t npages = (offset_in_page + len + kPageSize - 1) / kPageSize;
  std::vector<PhysAddr> frames;
  frames.reserve(npages);
  for (std::uint32_t i = 0; i < npages; ++i) {
    const PhysAddr f = fa_->alloc();
    frames.push_back(f);
    owned_frames_.push_back(f);
  }
  return map_pages_at_cursor(frames, offset_in_page, len);
}

VirtAddr AddressSpace::alloc_prefer_contiguous(std::uint32_t len, bool* contiguous) {
  const std::uint32_t npages = (len + kPageSize - 1) / kPageSize;
  if (auto base = fa_->alloc_contiguous(npages)) {
    std::vector<PhysAddr> frames(npages);
    for (std::uint32_t i = 0; i < npages; ++i) {
      frames[i] = *base + i * kPageSize;
      owned_frames_.push_back(frames[i]);
    }
    if (contiguous != nullptr) *contiguous = true;
    return map_pages_at_cursor(frames, 0, len);
  }
  if (contiguous != nullptr) *contiguous = false;
  return alloc(len);
}

VirtAddr AddressSpace::map_frame(PhysAddr frame_base) {
  if (page_offset(frame_base) != 0) {
    throw std::invalid_argument("AddressSpace::map_frame: not page aligned");
  }
  const std::uint32_t vpage = next_vpage_++;
  table_[vpage] = frame_base;
  return vpage << kPageShift;
}

void AddressSpace::unmap_page(VirtAddr va) {
  if (table_.erase(page_of(va)) == 0) {
    throw std::logic_error("AddressSpace::unmap_page: not mapped");
  }
}

PhysAddr AddressSpace::translate(VirtAddr va) const {
  const auto it = table_.find(page_of(va));
  if (it == table_.end()) {
    throw std::out_of_range("AddressSpace(" + name_ + "): unmapped va " +
                            std::to_string(va));
  }
  return it->second + page_offset(va);
}

bool AddressSpace::mapped(VirtAddr va) const {
  return table_.contains(page_of(va));
}

std::vector<PhysBuffer> AddressSpace::scatter(VirtAddr va, std::uint32_t len) const {
  std::vector<PhysBuffer> out;
  std::uint32_t remaining = len;
  VirtAddr cur = va;
  while (remaining > 0) {
    const std::uint32_t in_page = std::min(remaining, kPageSize - page_offset(cur));
    const PhysAddr pa = translate(cur);
    if (!out.empty() && out.back().addr + out.back().len == pa) {
      out.back().len += in_page;  // physically contiguous with previous run
    } else {
      out.push_back({pa, in_page});
    }
    cur += in_page;
    remaining -= in_page;
  }
  return out;
}

void AddressSpace::write(VirtAddr va, std::span<const std::uint8_t> src) {
  std::size_t done = 0;
  for (const PhysBuffer& pb : scatter(va, static_cast<std::uint32_t>(src.size()))) {
    pm_->write(pb.addr, src.subspan(done, pb.len));
    done += pb.len;
  }
}

void AddressSpace::read(VirtAddr va, std::span<std::uint8_t> dst) const {
  std::size_t done = 0;
  for (const PhysBuffer& pb : scatter(va, static_cast<std::uint32_t>(dst.size()))) {
    pm_->read(pb.addr, dst.subspan(done, pb.len));
    done += pb.len;
  }
}

}  // namespace osiris::mem
