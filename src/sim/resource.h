// Serial resources with calendar-based arbitration.
//
// A Resource models a unit that serves one request at a time: the
// TURBOchannel, a host CPU, an on-board microprocessor, a link sublink.
// Requests reserve the resource for a duration starting no earlier than a
// given time; the reservation occupies the EARLIEST free interval of
// sufficient length. Keeping a calendar of busy intervals (rather than a
// single FIFO horizon) matters because actors compute their own timelines:
// the host driver may book a dual-port-RAM access far in the future (after
// a long compute phase) while the board's next DMA — issued later in call
// order but earlier in simulated time — must still slot into the gap
// before it, as it would on real hardware.
//
// The calendar is a flat start-sorted vector of maximal busy blocks with a
// consumed-prefix index. A booking that touches the block before it or
// after it extends that block (or merges the two) instead of adding an
// entry, so no two blocks touch and a saturated resource -- the
// TURBOchannel at ~94% load, booked back to back -- is a handful of
// blocks, not one entry per reservation. The earliest gap of length `hold`
// at or after `from` depends only on the busy set, which coalescing leaves
// unchanged, so every result is the same as with one entry per booking.
// Blocks never overlap, so their ends are sorted too, and dropping the
// ones that ended before now is exactly advancing the index. Bookings land
// at the tail almost always, so a reservation costs no allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/time.h"

namespace osiris::sim {

class Resource {
 public:
  Resource(Engine& eng, std::string name) : eng_(&eng), name_(std::move(name)) {}

  /// Reserves the resource for `hold` ticks starting no earlier than now.
  /// Returns the completion time of this reservation.
  Tick reserve(Duration hold) { return reserve_at(eng_->now(), hold); }

  /// Reserves the earliest interval of length `hold` starting at or after
  /// `from`. Returns the completion time.
  Tick reserve_at(Tick from, Duration hold) {
    prune();
    Tick start = from;
    if (hold > 0) {
      // Walk blocks overlapping or following `start` until a gap fits.
      const auto live = busy_.begin() + static_cast<std::ptrdiff_t>(head_);
      auto it = std::upper_bound(
          live, busy_.end(), start,
          [](Tick t, const Block& b) { return t < b.start; });
      if (it != live && std::prev(it)->end > start) start = std::prev(it)->end;
      while (it != busy_.end() && it->start < start + hold) {
        start = std::max(start, it->end);
        ++it;
      }
      // [start, start + hold) lies in the gap between it[-1] and it.
      const Tick end = start + hold;
      const bool joins_next = it != busy_.end() && it->start == end;
      if (it != live && std::prev(it)->end == start) {
        const auto prev = std::prev(it);
        if (joins_next) {
          prev->end = it->end;
          busy_.erase(it);
        } else {
          prev->end = end;
        }
      } else if (joins_next) {
        it->start = start;
      } else {
        busy_.insert(it, Block{start, end});
      }
    }
    busy_until_ = std::max(busy_until_, start + hold);
    busy_total_ += hold;
    wait_total_ += start - from;
    ++reservations_;
    return start + hold;
  }

  /// Latest completion time of any reservation (a new request at that time
  /// is guaranteed to start immediately).
  [[nodiscard]] Tick free_at() const { return busy_until_; }

  /// True if any reservation extends past the current instant.
  [[nodiscard]] bool busy() const { return busy_until_ > eng_->now(); }

  /// Cumulative busy time across all reservations.
  [[nodiscard]] Duration busy_total() const { return busy_total_; }

  /// Cumulative time reservations spent waiting behind earlier ones.
  [[nodiscard]] Duration wait_total() const { return wait_total_; }

  /// Number of reservations made.
  [[nodiscard]] std::uint64_t reservations() const { return reservations_; }

  /// Fraction of time [0, now] the resource has been busy.
  [[nodiscard]] double utilization() const {
    const Tick t = eng_->now();
    return t == 0 ? 0.0 : static_cast<double>(busy_total_) / static_cast<double>(t);
  }

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Forgets accumulated statistics (not the busy calendar).
  void reset_stats() {
    busy_total_ = 0;
    wait_total_ = 0;
    reservations_ = 0;
  }

 private:
  struct Block {
    Tick start;
    Tick end;
  };

  /// Drops blocks that ended before the current simulated time: new
  /// requests always carry from >= the issuing event's time, so nothing
  /// can ever be booked there again. Ends are sorted, so they form a
  /// prefix; the storage is reclaimed once it is at least half the vector.
  void prune() {
    const Tick now = eng_->now();
    while (head_ < busy_.size() && busy_[head_].end < now) ++head_;
    if (head_ >= kCompactAt && 2 * head_ >= busy_.size()) {
      busy_.erase(busy_.begin(),
                  busy_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  static constexpr std::size_t kCompactAt = 64;

  Engine* eng_;
  std::string name_;
  std::vector<Block> busy_;  // start-sorted, maximal: no two touch
  std::size_t head_ = 0;     // busy_[0, head_) ended before now
  Tick busy_until_ = 0;
  Duration busy_total_ = 0;
  Duration wait_total_ = 0;
  std::uint64_t reservations_ = 0;
};

}  // namespace osiris::sim
