#include "link/link.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "atm/wire.h"

namespace osiris::link {

StripedLink::StripedLink(sim::Engine& eng, LinkConfig cfg)
    : eng_(&eng),
      cfg_(cfg),
      cell_time_(sim::ns(static_cast<double>(atm::kCellWire) * 8.0 * 1e3 /
                         cfg.lane_mbps)),
      rng_(cfg.seed) {
  lane_busy_until_.fill(0);
  lane_last_arrival_.fill(0);
}

sim::Tick StripedLink::submit(sim::Tick from, const atm::Cell& c) {
  if (c.bom()) next_lane_ = 0;  // each PDU restarts the stripe rotation
  const int lane = next_lane_;
  next_lane_ = (next_lane_ + 1) % atm::kLanes;

  // Clock the cell onto the lane (serialization).
  const sim::Tick start = std::max(from, lane_busy_until_[lane]);
  const sim::Tick departed = start + cell_time_;
  lane_busy_until_[lane] = departed;
  ++cells_sent_;

  if (cfg_.cell_loss_p > 0.0 && rng_.chance(cfg_.cell_loss_p)) {
    ++cells_lost_;
    return departed;
  }

  // Propagation plus the three skew causes.
  sim::Duration delay = sim::us(cfg_.base_delay_us);
  delay += sim::us(cfg_.path_offset_us[static_cast<std::size_t>(lane)]);
  if (cfg_.mux_jitter_us > 0.0) {
    delay += sim::us(rng_.uniform() * cfg_.mux_jitter_us);
  }
  if (cfg_.queue_jitter_us > 0.0) {
    delay += sim::us(rng_.uniform() * cfg_.queue_jitter_us);
  }

  // In-order within the lane: never earlier than the previous arrival on
  // this lane plus one cell time.
  sim::Tick arrival = departed + delay;
  arrival = std::max(arrival, lane_last_arrival_[lane] + cell_time_);
  lane_last_arrival_[lane] = arrival;

  atm::Cell delivered = c;
  if (cfg_.wire_ber > 0.0) {
    // Byte-accurate path: serialize, flip bits, reparse.
    atm::WireCell w = atm::encode_cell(c);
    bool flipped = false;
    for (std::size_t bit = 0; bit < w.size() * 8; ++bit) {
      if (rng_.chance(cfg_.wire_ber)) {
        w[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        flipped = true;
      }
    }
    if (flipped) ++cells_corrupted_;
    const auto parsed = atm::decode_cell(w);
    if (!parsed) {
      ++cells_hec_dropped_;  // framer discards on HEC failure
      return departed;
    }
    delivered = *parsed;
    // The wire carries only the 53 real bytes; restore the observability
    // sidecar the encode/decode round trip necessarily dropped.
    delivered.t_origin = c.t_origin;
  }
  delivered.t_depart = departed;
  if (cfg_.payload_err_p > 0.0 && rng_.chance(cfg_.payload_err_p)) {
    const auto bit = rng_.below(static_cast<std::uint64_t>(delivered.len) * 8);
    delivered.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++cells_corrupted_;
  }
  if (cfg_.header_err_p > 0.0 && rng_.chance(cfg_.header_err_p)) {
    delivered.vci ^= atm::Vci{1} << rng_.below(atm::kVciBits);
    ++cells_corrupted_;
  }

  if (!sink_) throw std::logic_error("StripedLink: no sink registered");
  if (group_ != nullptr) {
    // Export across the partition boundary. The envelope carries the cell
    // by value (RemoteEvent's inline budget is sized for exactly this), so
    // the sink runs on the destination partition and touches no sender
    // state but the immutable sink itself.
    Sink* sinkp = &sink_;
    auto deliver_fn = [sinkp, lane, delivered] { (*sinkp)(lane, delivered); };
    // The cell's observability sidecar (t_origin/t_depart, 16 bytes) is
    // budgeted into RemoteEvent's inline capacity; growing Cell further
    // would silently heap-box every exported cell.
    static_assert(sizeof(deliver_fn) <= sim::RemoteEvent::kInlineBytes,
                  "exported cell envelope must stay inline");
    group_->schedule_remote(src_, dst_, arrival,
                            sim::RemoteEvent(std::move(deliver_fn)));
    return departed;
  }
  const std::uint32_t slot = acquire_slot(lane, delivered);
  eng_->schedule_at(arrival, [this, slot] { deliver(slot); });
  return departed;
}

std::uint32_t StripedLink::acquire_slot(int lane, const atm::Cell& c) {
  std::uint32_t idx;
  if (free_slot_ != kNoSlot) {
    idx = free_slot_;
    free_slot_ = pool_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[idx].cell = c;
  pool_[idx].lane = lane;
  return idx;
}

void StripedLink::deliver(std::uint32_t slot) {
  // Copy out before releasing the slot: the sink may submit() reentrantly,
  // which can grow the pool and invalidate references into it.
  const atm::Cell cell = pool_[slot].cell;
  const int lane = pool_[slot].lane;
  pool_[slot].next_free = free_slot_;
  free_slot_ = slot;
  sink_(lane, cell);
}

LinkConfig skewed_config(double skew_us, std::uint64_t seed) {
  LinkConfig cfg;
  cfg.seed = seed;
  // Spread the skew over the three causes: fixed per-lane offsets covering
  // [0, skew/2], plus random jitter up to skew/4 from each of the two
  // dynamic causes.
  for (int l = 0; l < atm::kLanes; ++l) {
    cfg.path_offset_us[static_cast<std::size_t>(l)] =
        skew_us / 2.0 * static_cast<double>(l) / (atm::kLanes - 1);
  }
  cfg.mux_jitter_us = skew_us / 4.0;
  cfg.queue_jitter_us = skew_us / 4.0;
  return cfg;
}

}  // namespace osiris::link
