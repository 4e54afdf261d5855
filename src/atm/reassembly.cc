#include "atm/reassembly.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace osiris::atm {

// ---------------------------------------------------------------- SeqRouter

void SeqRouter::on_cell(int /*lane*/, const Cell& c, std::vector<Placement>& place,
                        std::vector<Completion>& done) {
  auto [pp, fresh] = pdus_.emplace(c.pdu_id);
  Pdu& p = *pp;
  if (fresh) {
    p.key = next_key_++;
  } else if (c.bom() && !p.have.empty() && p.have[0]) {
    // Replacement BOM: a fresh PDU's first cell landed on a pdu_id whose
    // previous reassembly never completed (its EOM was lost and the
    // 16-bit id space wrapped). Reclaim the stale state instead of
    // mistaking the new PDU's cells for duplicates.
    dropped_ += p.received;
    p = Pdu{};
    p.key = next_key_++;
  }

  if (p.have.size() <= c.seq) p.have.resize(c.seq + 1, false);
  if (p.have[c.seq]) {
    ++dropped_;  // duplicate seq: corrupted or wrapped id space
    return;
  }
  p.have[c.seq] = true;
  ++p.received;
  if (c.last_cell()) {
    p.ncells = static_cast<std::uint32_t>(c.seq) + 1;
    p.wire_bytes = static_cast<std::uint32_t>(c.seq) * kCellPayload + c.len;
  }

  place.push_back({p.key, static_cast<std::uint32_t>(c.seq) * kCellPayload, c});

  if (p.ncells != 0 && p.received == p.ncells) {
    done.push_back({p.key, p.wire_bytes});
    pdus_.erase(c.pdu_id);
  }
}

std::uint64_t SeqRouter::purge() {
  const auto n = static_cast<std::uint64_t>(pdus_.size());
  pdus_.for_each([this](std::uint64_t, const Pdu& p) { dropped_ += p.received; });
  pdus_.clear();
  return n;
}

// --------------------------------------------------------------- QuadRouter
//
// Lane attribution. Every PDU starts on lane 0 (the transmit firmware
// restarts its stripe rotation for each PDU), so cell `seq` travels on lane
// `seq % 4` and lane 0 carries at least one cell of every PDU. Lane 0's
// stream is therefore a complete, in-order sequence of PDU portions and is
// always attributable. Higher lanes skip short PDUs entirely; a cell at the
// start of a lane-l portion can be attributed to the lane's current PDU
// only once we can prove that PDU has (min bound) or lacks (max bound) a
// cell with seq == l. Bounds come from flags on already-placed cells:
//
//   placed cell seq s:            ncells >= s+1
//   ... without kFlagLastCell:    ncells >= s+2
//   ... with kFlagLastCell:       ncells == s+1 (exact)
//   ... with kFlagLaneEom:        ncells <= s+4 (no further cell on lane)
//   ... without kFlagLaneEom:     ncells >= s+5 (another cell on this lane)

QuadRouter::Pdu& QuadRouter::pdu_state(std::uint64_t idx) {
  // Indices only move forward; retired ones are never revisited.
  while (idx - base_ >= ring_.size()) ring_.emplace_back();
  return ring_[idx - base_];
}

std::size_t QuadRouter::inflight() const {
  std::size_t n = 0;
  for (const Pdu& p : ring_) {
    if (!p.completed && p.received > 0) ++n;
  }
  return n;
}

std::size_t QuadRouter::queued() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.queue.size();
  return n;
}

void QuadRouter::place_next(int lane, const Cell& c, std::vector<Placement>& place,
                            std::vector<Completion>& done) {
  Lane& l = lanes_[lane];
  const std::uint64_t pdu_idx = l.pdu;
  const std::uint32_t seq = l.in_lane * kLanes + static_cast<std::uint32_t>(lane);
  Pdu& p = pdu_state(pdu_idx);
  ++p.received;

  // Tighten ncells bounds from this cell's flags.
  p.min_cells = std::max(p.min_cells, seq + 1);
  if (c.last_cell()) {
    p.ncells = seq + 1;
    p.min_cells = std::max(p.min_cells, p.ncells);
    p.max_cells = std::min(p.max_cells, p.ncells);
    p.wire_bytes = seq * kCellPayload + c.len;
  } else {
    p.min_cells = std::max(p.min_cells, seq + 2);
  }
  if (c.lane_eom()) {
    p.max_cells = std::min(p.max_cells, seq + kLanes);
  } else {
    p.min_cells = std::max(p.min_cells, seq + kLanes + 1);
  }

  place.push_back({pdu_idx, seq * kCellPayload, c});

  if (p.ncells != 0 && p.received == p.ncells) {
    done.push_back({pdu_idx, p.wire_bytes});
    p.completed = true;
  }

  // Advance this lane past the portion if it just ended.
  if (c.lane_eom()) {
    l.pdu = pdu_idx + 1;
    l.in_lane = 0;
  } else {
    l.in_lane = seq / kLanes + 1;
  }

  // Drop fully completed PDUs that no lane can still reference.
  while (!ring_.empty()) {
    if (!ring_.front().completed) break;
    bool referenced = false;
    for (const Lane& ln : lanes_) {
      if (ln.pdu <= base_) referenced = true;
    }
    if (referenced) break;
    ring_.pop_front();
    ++base_;
  }
}

QuadRouter::Verdict QuadRouter::decide(int lane) {
  const Lane& l = lanes_[lane];
  // Mid-portion: unambiguous continuation of the current PDU. Lane 0:
  // every PDU has a lane-0 cell, so it is always attributable.
  if (l.in_lane > 0 || lane == 0) return Verdict::kPlace;
  // Portion start: the cell is the first lane-`lane` cell of l.pdu only if
  // l.pdu provably has one; skip l.pdu if it provably lacks one; otherwise
  // wait for more information.
  const Pdu& p = pdu_state(l.pdu);
  if (p.min_cells > static_cast<std::uint32_t>(lane)) return Verdict::kPlace;
  if (p.max_cells <= static_cast<std::uint32_t>(lane)) return Verdict::kSkip;
  return Verdict::kWait;
}

void QuadRouter::drain(std::vector<Placement>& place, std::vector<Completion>& done) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (int lane = 0; lane < kLanes; ++lane) {
      Lane& l = lanes_[lane];
      while (!l.queue.empty()) {
        const Verdict v = decide(lane);
        if (v == Verdict::kWait) break;  // wait for bounds to tighten
        progress = true;
        if (v == Verdict::kSkip) {
          ++l.pdu;
          continue;
        }
        const Cell head = l.queue.front();
        l.queue.pop_front();
        place_next(lane, head, place, done);
      }
    }
  }
}

std::uint64_t QuadRouter::purge() {
  std::uint64_t abandoned = 0;
  for (const Pdu& p : ring_) {
    if (!p.completed && p.received > 0) {
      ++abandoned;
      dropped_ += p.received;
    }
  }
  // Skip every lane past all state it might still reference; the next PDU
  // index must exceed any previously used one (placements are keyed by it).
  std::uint64_t next = 0;
  for (const Lane& l : lanes_) next = std::max(next, l.pdu);
  if (!ring_.empty()) next = std::max(next, base_ + ring_.size() - 1);
  ++next;
  for (Lane& l : lanes_) {
    dropped_ += l.queue.size();
    l.queue.clear();
    l.pdu = next;
    l.in_lane = 0;
  }
  ring_.clear();
  base_ = next;
  return abandoned;
}

void QuadRouter::on_cell(int lane, const Cell& c, std::vector<Placement>& place,
                         std::vector<Completion>& done) {
  if (lane < 0 || lane >= kLanes) {
    throw std::invalid_argument("QuadRouter: bad lane " + std::to_string(lane));
  }
  Lane& l = lanes_[lane];
  if (queued() != 0) {
    l.queue.push_back(c);
    drain(place, done);
    return;
  }
  // Nothing is queued, so no placement can unblock another lane: the
  // arriving cell's own attribution is all drain() would do. In-order
  // arrival always takes this path.
  Verdict v = decide(lane);
  for (; v == Verdict::kSkip; v = decide(lane)) ++l.pdu;
  if (v == Verdict::kPlace) {
    place_next(lane, c, place, done);
  } else {
    l.queue.push_back(c);
  }
}

std::unique_ptr<CellRouter> make_router(const char* strategy) {
  const std::string s = strategy;
  if (s == "seq") return std::make_unique<SeqRouter>();
  if (s == "quad") return std::make_unique<QuadRouter>();
  throw std::invalid_argument("make_router: unknown strategy " + s);
}

}  // namespace osiris::atm
