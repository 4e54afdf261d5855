// Zero-copy transmit buffers, reclaimed at transmit completion.
//
// §2.1.2: the driver reclaims a transmit buffer lazily, once the board's
// tail pointer has passed its descriptor. A buffer the board DMAs straight
// out of therefore stays busy until the driver's completion watermark
// (OsirisDriver::tx_descs_retired) reaches the tx_descs_accepted() value
// stamped just after its send returned. Rewriting it earlier races the
// DMA and puts torn bytes on the wire. ADCs may DMA only from registered
// pages (§3.2), so every registered transmit buffer — protocol headers,
// RPC frames, ARQ frames — comes from a TxSlots pool and follows this
// rule. One send is:
//
//   va = slots.put(bytes) ...;  driver send over views at va;  slots.sent();
//
// A watchdog reset credits every lost in-flight chain as retired but
// replays the parked ones, so a stamp taken before the reset no longer
// proves a slot idle. The pool's own driver reset hook raises every busy
// stamp to the post-reset accepted watermark, which all replayed chains
// are at or below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "host/driver.h"
#include "mem/cache.h"
#include "mem/paging.h"

namespace osiris::proto {

class TxSlots {
 public:
  /// `count` slots of `slot_bytes` each in `space`; `drv` is the driver
  /// the slots are sent through, `cache` the sending CPU's data cache.
  TxSlots(host::OsirisDriver& drv, mem::DataCache& cache,
          mem::AddressSpace& space, std::uint32_t slot_bytes,
          std::size_t count = 0)
      : drv_(&drv), cache_(&cache), space_(&space), slot_bytes_(slot_bytes) {
    for (std::size_t i = 0; i < count; ++i) add();
    reset_hook_ = drv.add_reset_hook([this](sim::Tick) { requarantine(); });
  }
  ~TxSlots() { drv_->remove_reset_hook(reset_hook_); }

  TxSlots(const TxSlots&) = delete;
  TxSlots& operator=(const TxSlots&) = delete;

  /// Writes `bytes` into a slot, held until sent(), and returns its
  /// address. Frames larger than a slot get a fresh (never reused)
  /// allocation instead — fine in the kernel, rejected by the board over
  /// an ADC.
  mem::VirtAddr put(std::span<const std::uint8_t> bytes) {
    const auto len = static_cast<std::uint32_t>(bytes.size());
    if (len > slot_bytes_) {
      const mem::VirtAddr va = space_->alloc(len);
      space_->write(va, bytes);
      return va;
    }
    const std::size_t idx = acquire();
    slots_[idx].busy_until = kHeld;
    held_.push_back(idx);
    // CPU stores through the data cache, so a cached copy of the slot's
    // previous occupant never goes stale: a raw physical write would
    // leave old bytes in the cache, and a checksum later computed through
    // the cache would disagree with what the board DMAs from memory.
    std::size_t done = 0;
    for (const auto& pb : space_->scatter(slots_[idx].va, len)) {
      cache_->cpu_write(pb.addr, bytes.subspan(done, pb.len));
      done += pb.len;
    }
    return slots_[idx].va;
  }

  /// The send carrying every held slot has returned: each becomes free
  /// once the driver retires the descriptors accepted so far.
  void sent() {
    const std::uint64_t accepted = drv_->tx_descs_accepted();
    for (const std::size_t idx : held_) slots_[idx].busy_until = accepted;
    held_.clear();
  }

  /// Physical buffers of every slot, for ADC page authorization.
  [[nodiscard]] std::vector<mem::PhysBuffer> buffers() const {
    std::vector<mem::PhysBuffer> out;
    for (const Slot& s : slots_) {
      const auto sc = space_->scatter(s.va, slot_bytes_);
      out.insert(out.end(), sc.begin(), sc.end());
    }
    return out;
  }

  [[nodiscard]] mem::AddressSpace& space() const { return *space_; }

  /// Slots added because every slot was still owned by an in-flight DMA.
  [[nodiscard]] std::uint64_t overflows() const { return overflows_; }

 private:
  struct Slot {
    mem::VirtAddr va = 0;
    std::uint64_t busy_until = 0;  // accepted watermark; 0 = never sent
  };
  /// Stamp for a slot whose send has not returned yet: never free.
  static constexpr std::uint64_t kHeld = std::numeric_limits<std::uint64_t>::max();

  void add() { slots_.push_back({space_->alloc(slot_bytes_), 0}); }

  /// The first slot at or after the cursor whose last send has retired
  /// (the cursor moves past it), or a new slot when none has.
  std::size_t acquire() {
    const std::uint64_t retired = drv_->tx_descs_retired();
    for (std::size_t probe = 0; probe < slots_.size(); ++probe) {
      const std::size_t idx = (next_ + probe) % slots_.size();
      if (slots_[idx].busy_until > retired) continue;
      next_ = (idx + 1) % slots_.size();
      return idx;
    }
    ++overflows_;
    add();
    return slots_.size() - 1;
  }

  /// Driver reset hook body (see the file comment).
  void requarantine() {
    const std::uint64_t accepted = drv_->tx_descs_accepted();
    for (Slot& s : slots_) {
      if (s.busy_until != 0) s.busy_until = std::max(s.busy_until, accepted);
    }
  }

  host::OsirisDriver* drv_;
  mem::DataCache* cache_;
  mem::AddressSpace* space_;
  std::uint32_t slot_bytes_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> held_;
  std::size_t next_ = 0;
  int reset_hook_ = -1;
  std::uint64_t overflows_ = 0;
};

}  // namespace osiris::proto
