#include "obs/spans.h"

#include <algorithm>

#include "obs/metrics.h"

namespace osiris::obs {

namespace {
constexpr std::uint64_t rx_key(atm::Vci vci, std::uint8_t tag) {
  return atm::VciKey::pack(vci, tag);
}
}  // namespace

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kEnqueueToDpram: return "enqueue_to_dpram";
    case Stage::kSegment: return "segment";
    case Stage::kWire: return "wire";
    case Stage::kReassemble: return "reassemble";
    case Stage::kRxDma: return "rx_dma";
    case Stage::kDeliver: return "deliver";
    case Stage::kEndToEnd: return "e2e";
    case Stage::kCount: break;
  }
  return "?";
}

void PduSpans::tx_enqueued(int channel, sim::Tick at) {
  auto& fifo = tx_fifo_[channel];
  // Best-effort bound: if the firmware never drains (wedged queue), the
  // oldest stamps are the ones that will never be matched anyway.
  if (fifo.size() >= kTxFifoCap) fifo.pop_front();
  fifo.push_back(at);
}

sim::Tick PduSpans::take_tx_enqueue(int channel) {
  auto it = tx_fifo_.find(channel);
  if (it == tx_fifo_.end() || it->second.empty()) return 0;
  const sim::Tick at = it->second.front();
  it->second.pop_front();
  return at;
}

void PduSpans::rx_pushed(atm::Vci vci, std::uint8_t tag, sim::Tick origin,
                         sim::Tick pushed) {
  rx_pending_[rx_key(vci, tag)] = RxEntry{origin, pushed};
}

void PduSpans::rx_aborted(atm::Vci vci, std::uint8_t tag) {
  rx_pending_.erase(rx_key(vci, tag));
}

void PduSpans::rx_delivered(atm::Vci vci, std::uint8_t tag, sim::Tick at) {
  auto it = rx_pending_.find(rx_key(vci, tag));
  if (it == rx_pending_.end()) return;
  const RxEntry e = it->second;
  rx_pending_.erase(it);
  if (at >= e.pushed && e.pushed > 0) {
    record(Stage::kDeliver, at - e.pushed);
  }
  if (e.origin > 0 && at >= e.origin) {
    const std::uint64_t dt = at - e.origin;
    record(Stage::kEndToEnd, dt);
    auto vit = vci_e2e_.find(vci);
    if (vit != vci_e2e_.end()) vit->second.record(dt);
  }
  ++spans_seen_;
  if (ring_.size() >= kRingCap) {
    ring_[spans_seen_ % kRingCap] = Span{vci, tag, e.origin, e.pushed, at};
  } else {
    ring_.push_back(Span{vci, tag, e.origin, e.pushed, at});
  }
}

void PduSpans::enable_vci(atm::Vci vci) { vci_e2e_.try_emplace(vci); }

const sim::Log2Histogram* PduSpans::vci_e2e(atm::Vci vci) const {
  auto it = vci_e2e_.find(vci);
  return it == vci_e2e_.end() ? nullptr : &it->second;
}

std::vector<PduSpans::Span> PduSpans::completed_spans() const {
  std::vector<Span> out = ring_;
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.delivered < b.delivered;
  });
  return out;
}

void PduSpans::register_into(Registry& reg, const std::string& prefix) const {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Stage::kCount); ++i) {
    reg.histogram_ref(prefix + stage_name(static_cast<Stage>(i)), &stages_[i],
                      "ticks");
  }
  for (const auto& [vci, hist] : vci_e2e_) {
    reg.histogram_ref(prefix + "e2e.vci" + std::to_string(vci), &hist,
                      "ticks");
  }
}

void PduSpans::merge_stages(const PduSpans& other) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Stage::kCount); ++i) {
    stages_[i].merge(other.stages_[i]);
  }
  for (const auto& [vci, hist] : other.vci_e2e_) {
    vci_e2e_[vci].merge(hist);
  }
}

}  // namespace osiris::obs
