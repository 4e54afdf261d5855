// The striped 622 Mbps SONET/ATM link (paper §2.6).
//
// Four 155 Mbps physical sublinks ("lanes") are grouped into one logical
// channel with data striped at the cell level. Striping introduces skew:
// cells on one lane stay ordered relative to each other but may be delayed
// relative to other lanes. The paper identifies three causes, all modelled
// here:
//   (1) different physical path lengths        -> fixed per-lane offsets
//   (2) delays from multiplexing equipment     -> bounded random jitter
//   (3) queueing at distinct switch ports      -> bounded random queueing
//       delay (the paper notes this one is essentially unbounded; crank
//       `queue_jitter_us` up to explore that regime)
//
// In-order delivery *within* a lane is enforced: an arrival time is never
// earlier than the previous arrival on the same lane plus one cell time.
//
// The transmitter stripes round-robin and restarts each PDU on lane 0 (so
// cell `seq` always travels on lane `seq % 4`) — the alignment the QuadRouter
// reassembly strategy relies on; see reassembly.h.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "atm/cell.h"
#include "sim/engine.h"
#include "sim/group.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace osiris::link {

struct LinkConfig {
  double lane_mbps = 155.52;    // per-sublink line rate
  double base_delay_us = 2.0;   // propagation, identical on all lanes
  std::array<double, atm::kLanes> path_offset_us{};  // skew cause (1)
  double mux_jitter_us = 0.0;                        // skew cause (2)
  double queue_jitter_us = 0.0;                      // skew cause (3)
  double cell_loss_p = 0.0;     // probability a cell vanishes
  double payload_err_p = 0.0;   // probability one payload bit flips
  double header_err_p = 0.0;    // probability one header field flips
  // Byte-accurate mode: serialize each cell to its 53-byte wire form and
  // flip each of the 424 bits with this probability. Header damage is
  // caught by the real CRC-8 HEC (cell dropped at the framer); payload
  // damage flows through to the AAL CRC / UDP checksum.
  double wire_ber = 0.0;
  std::uint64_t seed = 42;
};

/// One direction of the striped link. The peer board's receive half
/// registers a sink; the transmit firmware submits cells in seq order.
class StripedLink {
 public:
  /// Called at cell arrival time with the arrival lane and the (possibly
  /// corrupted) cell.
  using Sink = std::function<void(int lane, const atm::Cell&)>;

  StripedLink(sim::Engine& eng, LinkConfig cfg);

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Switches delivery to partition-boundary export: arrivals are handed to
  /// partition `dst` of `group` through EngineGroup::schedule_remote instead
  /// of the local engine, carrying the delivered cell by value in the
  /// envelope. The caller must have declared the channel with a lookahead
  /// no larger than min_latency(). Wire before the first submit().
  void set_remote(sim::EngineGroup& group, std::size_t src, std::size_t dst) {
    group_ = &group;
    src_ = src;
    dst_ = dst;
  }

  /// Lower bound on submit-to-arrival latency: one cell serialization time
  /// plus the fixed propagation delay (jitter and per-lane offsets only add
  /// to it). This is the conservative lookahead for the link's channel.
  [[nodiscard]] sim::Duration min_latency() const {
    return cell_time_ + sim::us(cfg_.base_delay_us);
  }

  /// Time to clock one cell onto a lane.
  [[nodiscard]] sim::Duration cell_time() const { return cell_time_; }

  /// Submits a cell for transmission no earlier than `from`. The lane is
  /// chosen by the stripe rotation (reset to lane 0 on a BOM cell).
  /// Returns the time the chosen lane finishes clocking the cell out —
  /// the earliest the transmitter can hand over another cell for that lane;
  /// used by the transmit firmware for pacing.
  sim::Tick submit(sim::Tick from, const atm::Cell& c);

  [[nodiscard]] std::uint64_t cells_sent() const { return cells_sent_; }
  [[nodiscard]] std::uint64_t cells_lost() const { return cells_lost_; }
  [[nodiscard]] std::uint64_t cells_corrupted() const { return cells_corrupted_; }
  /// Cells whose wire header failed the HEC at the receiving framer
  /// (byte-accurate mode only).
  [[nodiscard]] std::uint64_t cells_hec_dropped() const { return cells_hec_dropped_; }

 private:
  // In-flight cells parked in a pooled slot so the scheduled delivery
  // event captures only {this, slot} and stays inside Event's inline
  // buffer (a by-value Cell capture would heap-box every delivery).
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct PendingDelivery {
    atm::Cell cell;
    int lane = 0;
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t acquire_slot(int lane, const atm::Cell& c);
  void deliver(std::uint32_t slot);

  sim::Engine* eng_;
  sim::EngineGroup* group_ = nullptr;  // non-null: deliveries cross partitions
  std::size_t src_ = 0;
  std::size_t dst_ = 0;
  LinkConfig cfg_;
  sim::Duration cell_time_;
  Sink sink_;
  sim::Rng rng_;
  int next_lane_ = 0;
  std::array<sim::Tick, atm::kLanes> lane_busy_until_{};
  std::array<sim::Tick, atm::kLanes> lane_last_arrival_{};
  std::uint64_t cells_sent_ = 0;
  std::uint64_t cells_lost_ = 0;
  std::uint64_t cells_corrupted_ = 0;
  std::uint64_t cells_hec_dropped_ = 0;
  std::vector<PendingDelivery> pool_;
  std::uint32_t free_slot_ = kNoSlot;
};

/// Convenience: a LinkConfig with a given amount of symmetric skew spread
/// across the three causes (used by benches and tests).
LinkConfig skewed_config(double skew_us, std::uint64_t seed = 42);

}  // namespace osiris::link
