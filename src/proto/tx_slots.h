// Zero-copy transmit buffers, reclaimed at transmit completion.
//
// §2.1.2: the driver reclaims a transmit buffer lazily, once the board's
// tail pointer has passed its descriptor. A buffer the board DMAs straight
// out of therefore stays busy until the driver's completion watermark
// (OsirisDriver::tx_descs_retired) reaches the tx_descs_accepted() value
// stamped just after its send returned. Rewriting it earlier races the
// DMA and puts torn bytes on the wire.
//
// A watchdog reset credits every lost in-flight chain as retired but
// replays the parked ones, so a stamp taken before the reset no longer
// proves a buffer idle. requarantine(), called from a driver reset hook,
// raises every busy stamp to the post-reset accepted watermark, which all
// replayed chains are at or below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "mem/paging.h"

namespace osiris::proto {

class TxSlots {
 public:
  struct Slot {
    mem::VirtAddr va = 0;
    std::uint64_t busy_until = 0;  // accepted watermark; 0 = never sent
  };

  /// Stamp for a slot whose send has not returned yet: never free.
  static constexpr std::uint64_t kHeld = std::numeric_limits<std::uint64_t>::max();

  /// Adds a free slot backed by `va`; returns its index.
  std::size_t add(mem::VirtAddr va) {
    slots_.push_back({va, 0});
    return slots_.size() - 1;
  }

  /// The first slot at or after the cursor whose last send has retired
  /// (`retired` = tx_descs_retired()); the cursor moves past it. nullopt
  /// while every slot is still owned by an in-flight DMA.
  std::optional<std::size_t> acquire(std::uint64_t retired) {
    for (std::size_t probe = 0; probe < slots_.size(); ++probe) {
      const std::size_t idx = (next_ + probe) % slots_.size();
      if (slots_[idx].busy_until > retired) continue;
      next_ = (idx + 1) % slots_.size();
      return idx;
    }
    return std::nullopt;
  }

  /// Marks slot `i` busy until the driver retires `accepted` descriptors.
  void stamp(std::size_t i, std::uint64_t accepted) {
    slots_[i].busy_until = accepted;
  }

  /// Stamps every held slot with `accepted`: its send has returned.
  void release_held(std::uint64_t accepted) {
    for (Slot& s : slots_) {
      if (s.busy_until == kHeld) s.busy_until = accepted;
    }
  }

  /// Driver reset hook body (see the file comment).
  void requarantine(std::uint64_t accepted) {
    for (Slot& s : slots_) {
      if (s.busy_until != 0) s.busy_until = std::max(s.busy_until, accepted);
    }
  }

  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }

 private:
  std::vector<Slot> slots_;
  std::size_t next_ = 0;
};

}  // namespace osiris::proto
