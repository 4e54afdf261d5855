// Property and unit tests for the two §2.6 skew-reassembly strategies.
//
// Cells are striped lane = seq % 4 with each PDU restarting at lane 0
// (what the transmit firmware does). Skew means: per-lane order is
// preserved, cross-lane interleaving is arbitrary. Both routers must
// reassemble correctly under ANY such interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <string>

#include "atm/reassembly.h"
#include "atm/sar.h"
#include "sim/rng.h"

namespace osiris::atm {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint32_t tag) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 29 + tag * 101 + 13);
  }
  return v;
}

struct LanedCell {
  int lane;
  Cell cell;
};

/// Stripes a sequence of PDUs into per-lane streams.
std::array<std::vector<Cell>, kLanes> stripe(const std::vector<std::vector<std::uint8_t>>& pdus) {
  std::array<std::vector<Cell>, kLanes> lanes;
  std::uint16_t pdu_id = 0;
  for (const auto& p : pdus) {
    const auto cells = segment(p, /*vci=*/7, pdu_id++);
    for (const Cell& c : cells) lanes[c.seq % kLanes].push_back(c);
  }
  return lanes;
}

/// Random merge of the lane streams preserving per-lane order — i.e. an
/// arbitrary bounded-skew interleaving.
std::vector<LanedCell> random_merge(const std::array<std::vector<Cell>, kLanes>& lanes,
                                    std::uint64_t seed) {
  sim::Rng rng(seed);
  std::array<std::size_t, kLanes> pos{};
  std::size_t total = 0;
  for (const auto& l : lanes) total += l.size();
  std::vector<LanedCell> out;
  out.reserve(total);
  while (out.size() < total) {
    const int lane = static_cast<int>(rng.below(kLanes));
    const auto li = static_cast<std::size_t>(lane);
    if (pos[li] < lanes[li].size()) {
      out.push_back({lane, lanes[li][pos[li]++]});
    }
  }
  return out;
}

/// Runs a router over the interleaving; returns reassembled PDUs in
/// completion order.
std::vector<std::vector<std::uint8_t>> run_router(CellRouter& r,
                                                  const std::vector<LanedCell>& seq) {
  std::map<std::uint64_t, std::vector<std::uint8_t>> bytes;
  std::vector<std::vector<std::uint8_t>> completed;
  std::vector<Placement> places;
  std::vector<Completion> dones;
  for (const LanedCell& lc : seq) {
    places.clear();
    dones.clear();
    r.on_cell(lc.lane, lc.cell, places, dones);
    for (const Placement& p : places) {
      auto& buf = bytes[p.pdu];
      if (buf.size() < p.offset + p.cell.len) buf.resize(p.offset + p.cell.len);
      std::copy_n(p.cell.payload.begin(), p.cell.len, buf.begin() + p.offset);
    }
    for (const Completion& d : dones) {
      auto it = bytes.find(d.pdu);
      EXPECT_TRUE(it != bytes.end()) << "completion for unknown pdu";
      if (it == bytes.end()) continue;
      EXPECT_EQ(it->second.size(), d.wire_bytes);
      // Strip the trailer and verify the CRC: end-to-end correctness.
      const auto t = decode_trailer(it->second);
      EXPECT_TRUE(t.has_value());
      if (!t || t->pdu_len + kTrailerBytes != d.wire_bytes) {
        ADD_FAILURE() << "bad trailer for pdu " << d.pdu;
        bytes.erase(it);
        continue;
      }
      std::vector<std::uint8_t> pdu(it->second.begin(),
                                    it->second.begin() + t->pdu_len);
      EXPECT_EQ(Crc32::of(pdu), t->crc);
      completed.push_back(std::move(pdu));
      bytes.erase(it);
    }
  }
  return completed;
}

void expect_same_multiset(std::vector<std::vector<std::uint8_t>> got,
                          std::vector<std::vector<std::uint8_t>> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

// The QuadRouter as it was before its direct path for in-order arrival:
// every cell is queued on its lane, then drain() attributes queued cells
// until no lane can progress. The differential test below holds the
// router to this reference, placement by placement.
class QueueAllQuadRouter final : public CellRouter {
 public:
  void on_cell(int lane, const Cell& c, std::vector<Placement>& place,
               std::vector<Completion>& done) override {
    lanes_[lane].queue.push_back(c);
    drain(place, done);
  }
  [[nodiscard]] const char* name() const override { return "quad-ref"; }
  [[nodiscard]] std::size_t inflight() const override {
    return static_cast<std::size_t>(std::count_if(
        ring_.begin(), ring_.end(),
        [](const Pdu& p) { return !p.completed && p.received > 0; }));
  }
  std::uint64_t purge() override {
    std::uint64_t abandoned = 0;
    for (const Pdu& p : ring_) {
      if (!p.completed && p.received > 0) {
        ++abandoned;
        dropped_ += p.received;
      }
    }
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
  [[nodiscard]] std::size_t queued() const {
    std::size_t n = 0;
    for (const Lane& l : lanes_) n += l.queue.size();
    return n;
  }

 private:
  struct Pdu {
    std::uint32_t received = 0;
    std::uint32_t ncells = 0;
    std::uint32_t min_cells = 1;
    std::uint32_t max_cells = ~0u;
    std::uint32_t wire_bytes = 0;
    bool completed = false;
  };
  struct Lane {
    std::deque<Cell> queue;
    std::uint64_t pdu = 0;
    std::uint32_t in_lane = 0;
  };

  Pdu& pdu_state(std::uint64_t idx) {
    while (idx - base_ >= ring_.size()) ring_.emplace_back();
    return ring_[idx - base_];
  }

  void place_cell(int lane, const Cell& c, std::uint64_t pdu_idx, std::uint32_t seq,
                  std::vector<Placement>& place, std::vector<Completion>& done) {
    Pdu& p = pdu_state(pdu_idx);
    ++p.received;
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
    Lane& l = lanes_[lane];
    if (c.lane_eom()) {
      l.pdu = pdu_idx + 1;
      l.in_lane = 0;
    } else {
      l.in_lane = seq / kLanes + 1;
    }
    while (!ring_.empty() && ring_.front().completed &&
           std::none_of(std::begin(lanes_), std::end(lanes_),
                        [this](const Lane& ln) { return ln.pdu <= base_; })) {
      ring_.pop_front();
      ++base_;
    }
  }

  void drain(std::vector<Placement>& place, std::vector<Completion>& done) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (int lane = 0; lane < kLanes; ++lane) {
        Lane& l = lanes_[lane];
        const auto ul = static_cast<std::uint32_t>(lane);
        while (!l.queue.empty()) {
          const Cell head = l.queue.front();
          if (l.in_lane > 0 || lane == 0 || pdu_state(l.pdu).min_cells > ul) {
            l.queue.pop_front();
            place_cell(lane, head, l.pdu, l.in_lane * kLanes + ul, place, done);
            progress = true;
          } else if (pdu_state(l.pdu).max_cells <= ul) {
            ++l.pdu;
            progress = true;
          } else {
            break;
          }
        }
      }
    }
  }

  std::deque<Pdu> ring_;
  std::uint64_t base_ = 0;
  Lane lanes_[kLanes];
};

/// Feeds `cells` to the router and to the queue-everything reference and
/// requires the same placements (PDU key, offset, cell bytes) and the same
/// completions after every cell. With `purge_at` < cells.size(), both are
/// purged before that cell and must abandon and drop the same state.
void expect_matches_reference(const std::vector<LanedCell>& cells,
                              std::size_t purge_at, const std::string& what) {
  QuadRouter r;
  QueueAllQuadRouter ref;
  std::vector<Placement> pl, ref_pl;
  std::vector<Completion> dn, ref_dn;
  std::size_t placed = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string at = what + ", cell " + std::to_string(i);
    if (i == purge_at) {
      ASSERT_EQ(r.purge(), ref.purge()) << at;
      ASSERT_EQ(r.dropped(), ref.dropped()) << at;
    }
    pl.clear();
    ref_pl.clear();
    dn.clear();
    ref_dn.clear();
    r.on_cell(cells[i].lane, cells[i].cell, pl, dn);
    ref.on_cell(cells[i].lane, cells[i].cell, ref_pl, ref_dn);
    ASSERT_EQ(pl.size(), ref_pl.size()) << at;
    for (std::size_t k = 0; k < pl.size(); ++k) {
      ASSERT_EQ(pl[k].pdu, ref_pl[k].pdu) << at;
      ASSERT_EQ(pl[k].offset, ref_pl[k].offset) << at;
      ASSERT_EQ(pl[k].cell.len, ref_pl[k].cell.len) << at;
      ASSERT_EQ(pl[k].cell.flags, ref_pl[k].cell.flags) << at;
      ASSERT_EQ(pl[k].cell.payload, ref_pl[k].cell.payload) << at;
    }
    ASSERT_EQ(dn.size(), ref_dn.size()) << at;
    for (std::size_t k = 0; k < dn.size(); ++k) {
      ASSERT_EQ(dn[k].pdu, ref_dn[k].pdu) << at;
      ASSERT_EQ(dn[k].wire_bytes, ref_dn[k].wire_bytes) << at;
    }
    ASSERT_EQ(r.queued(), ref.queued()) << at;
    ASSERT_EQ(r.inflight(), ref.inflight()) << at;
    placed += pl.size();
  }
  EXPECT_EQ(r.dropped(), ref.dropped()) << what;
  EXPECT_GT(placed, 0u) << what;
}

class RouterParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RouterParamTest, InOrderDelivery) {
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 10; ++i) pdus.push_back(pattern(500 + i * 77, i));
  const auto lanes = stripe(pdus);
  // In-order = strict round robin.
  std::vector<LanedCell> seq;
  std::array<std::size_t, kLanes> pos{};
  bool more = true;
  while (more) {
    more = false;
    for (int l = 0; l < kLanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (pos[li] < lanes[li].size()) {
        seq.push_back({l, lanes[li][pos[li]++]});
        more = true;
      }
    }
  }
  // NOTE: strict per-slot round robin is not quite arrival order for
  // mixed-size PDUs, but it is a valid bounded-skew interleaving.
  auto r = make_router(GetParam());
  expect_same_multiset(run_router(*r, seq), pdus);
  EXPECT_EQ(r->dropped(), 0u);
}

TEST_P(RouterParamTest, RandomSkewManySeeds) {
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 20; ++i) pdus.push_back(pattern(1 + i * 137 % 3000, i));
  const auto lanes = stripe(pdus);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto r = make_router(GetParam());
    expect_same_multiset(run_router(*r, random_merge(lanes, seed)), pdus);
    EXPECT_EQ(r->inflight(), 0u) << "leftover state, seed " << seed;
  }
}

TEST_P(RouterParamTest, ShortPdusUnderSkew) {
  // PDUs of 1..5 cells are the hard case for the quad strategy (lanes with
  // zero cells must be skipped via bounds).
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 40; ++i) {
    pdus.push_back(pattern((i % 5) * kCellPayload + 10, i));
  }
  const auto lanes = stripe(pdus);
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    auto r = make_router(GetParam());
    expect_same_multiset(run_router(*r, random_merge(lanes, seed)), pdus);
  }
}

TEST_P(RouterParamTest, SingleCellPdus) {
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 10; ++i) pdus.push_back(pattern(20, i));
  const auto lanes = stripe(pdus);
  auto r = make_router(GetParam());
  expect_same_multiset(run_router(*r, random_merge(lanes, 5)), pdus);
}

TEST_P(RouterParamTest, AdversarialLaneZeroLast) {
  // All of lanes 1-3 arrive before any lane-0 cell: maximal skew against
  // the lane that anchors attribution.
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 8; ++i) pdus.push_back(pattern(300 + i * 50, i));
  const auto lanes = stripe(pdus);
  std::vector<LanedCell> seq;
  for (int l = 1; l < kLanes; ++l) {
    for (const Cell& c : lanes[static_cast<std::size_t>(l)]) seq.push_back({l, c});
  }
  for (const Cell& c : lanes[0]) seq.push_back({0, c});
  auto r = make_router(GetParam());
  expect_same_multiset(run_router(*r, seq), pdus);
}

TEST_P(RouterParamTest, LargePduAcrossManyCells) {
  std::vector<std::vector<std::uint8_t>> pdus{pattern(64 * 1024, 1)};
  const auto lanes = stripe(pdus);
  auto r = make_router(GetParam());
  expect_same_multiset(run_router(*r, random_merge(lanes, 9)), pdus);
}

INSTANTIATE_TEST_SUITE_P(Strategies, RouterParamTest,
                         ::testing::Values("seq", "quad"));

TEST(SeqRouter, DuplicateCellDropped) {
  const auto pdu = pattern(500, 1);
  const auto cells = segment(pdu, 7, 0);
  SeqRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(0, cells[0], pl, dn);
  r.on_cell(0, cells[0], pl, dn);  // duplicate
  EXPECT_EQ(r.dropped(), 1u);
}

TEST(SeqRouter, PduIdReuseAfterCompletionIsSafe) {
  // 16-bit pdu_id wraps; reuse after completion must start fresh state.
  const auto p1 = pattern(100, 1);
  const auto p2 = pattern(200, 2);
  SeqRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  for (const Cell& c : segment(p1, 7, 42)) r.on_cell(0, c, pl, dn);
  ASSERT_EQ(dn.size(), 1u);
  const auto key1 = dn[0].pdu;
  pl.clear();
  dn.clear();
  for (const Cell& c : segment(p2, 7, 42)) r.on_cell(0, c, pl, dn);
  ASSERT_EQ(dn.size(), 1u);
  EXPECT_NE(dn[0].pdu, key1);  // fresh key despite the same pdu_id
}

TEST(QuadRouter, MakeRouterUnknownStrategyThrows) {
  EXPECT_THROW(make_router("nope"), std::invalid_argument);
}

TEST(QuadRouter, NoSequenceNumbersAreConsulted) {
  // Strategy B must work even when seq/pdu_id fields are zeroed (they are
  // not on the wire in this strategy).
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 12; ++i) pdus.push_back(pattern(100 + i * 333, i));
  auto lanes = stripe(pdus);
  std::array<std::vector<Cell>, kLanes> scrubbed;
  for (int l = 0; l < kLanes; ++l) {
    for (Cell c : lanes[static_cast<std::size_t>(l)]) {
      const std::uint16_t keep_seq = c.seq;  // only used to compute lane above
      (void)keep_seq;
      c.pdu_id = 0;
      c.seq = 0;
      scrubbed[static_cast<std::size_t>(l)].push_back(c);
    }
  }
  for (std::uint64_t seed = 7; seed < 17; ++seed) {
    QuadRouter r;
    expect_same_multiset(run_router(r, random_merge(scrubbed, seed)), pdus);
  }
}

TEST(QuadRouter, TwoCellPduLastCellArrivesFirst) {
  // The circular-looking case: the 2-cell PDU's LAST cell (lane 1) arrives
  // before its BOM (lane 0). Attribution of the lane-1 cell needs a lower
  // bound proving the PDU has a second cell — which only the lane-0 cell
  // provides (it carries no LAST flag, so ncells >= 2).
  const auto pdu = pattern(50, 1);  // wire 58 -> 2 cells
  auto lanes = stripe({pdu});
  ASSERT_EQ(lanes[0].size(), 1u);
  ASSERT_EQ(lanes[1].size(), 1u);
  QuadRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(1, lanes[1][0], pl, dn);  // LAST cell first
  EXPECT_TRUE(pl.empty()) << "must wait: the PDU might have had one cell";
  r.on_cell(0, lanes[0][0], pl, dn);
  EXPECT_EQ(pl.size(), 2u);
  ASSERT_EQ(dn.size(), 1u);
  EXPECT_EQ(dn[0].wire_bytes, 58u);
}

TEST(QuadRouter, ThreeCellPduMiddleCellUnlocksLaneTwo) {
  // ncells = 3: the LAST cell is on lane 2 and cannot attribute until the
  // lane-1 cell (no LAST flag => ncells >= 3) has been placed.
  const auto pdu = pattern(100, 2);  // wire 108 -> 3 cells
  auto lanes = stripe({pdu});
  QuadRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(2, lanes[2][0], pl, dn);  // LAST first: ambiguous
  EXPECT_TRUE(pl.empty());
  r.on_cell(0, lanes[0][0], pl, dn);  // min_cells -> 2: still ambiguous
  EXPECT_EQ(pl.size(), 1u);
  EXPECT_EQ(r.queued(), 1u);
  r.on_cell(1, lanes[1][0], pl, dn);  // min_cells -> 3: unlocks lane 2
  EXPECT_EQ(pl.size(), 3u);
  EXPECT_EQ(dn.size(), 1u);
  EXPECT_EQ(r.queued(), 0u);
}

TEST(QuadRouter, ShortPduSkippedOnHigherLanesViaExactCount) {
  // PDU A has 1 cell (lane 0 only); PDU B has 5. B's lane-1 cell can reach
  // the router before A's single cell; it must be attributed to B, not A —
  // provable only once A's LAST cell fixes ncells(A) = 1.
  const auto a = pattern(20, 3);   // 1 cell
  const auto b = pattern(200, 4);  // 5 cells
  auto lanes = stripe({a, b});
  ASSERT_EQ(lanes[1].size(), 1u);  // only B has a lane-1 cell
  QuadRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(1, lanes[1][0], pl, dn);  // B's cell 1, before anything else
  EXPECT_TRUE(pl.empty()) << "could belong to A if A had 2+ cells";
  r.on_cell(0, lanes[0][0], pl, dn);  // A's only cell: LAST -> ncells(A)=1
  EXPECT_EQ(dn.size(), 1u);  // A completes
  // Lane 1 now skips A, but its head is STILL ambiguous: it could belong
  // to B or (if B were single-cell too) to a later PDU. Only B's lane-0
  // cell (no LAST flag -> ncells(B) >= 2) resolves it.
  EXPECT_EQ(pl.size(), 1u);
  EXPECT_EQ(r.queued(), 1u);
  r.on_cell(0, lanes[0][1], pl, dn);  // B's cell 0
  EXPECT_EQ(pl.size(), 3u) << "B's queued lane-1 cell resolves";
  EXPECT_EQ(r.queued(), 0u);
  // Feed the rest of B.
  r.on_cell(2, lanes[2][0], pl, dn);
  r.on_cell(3, lanes[3][0], pl, dn);
  r.on_cell(0, lanes[0][2], pl, dn);
  ASSERT_EQ(dn.size(), 2u);
  EXPECT_EQ(dn[1].wire_bytes, 208u);
  EXPECT_EQ(r.inflight(), 0u);
}

TEST(QuadRouter, DirectPathMatchesQueueEverythingReference) {
  // In order: every cell takes the direct path.
  std::vector<std::vector<std::uint8_t>> pdus;
  for (std::uint32_t i = 0; i < 24; ++i) pdus.push_back(pattern(1 + i * 389 % 4000, i));
  const auto lanes = stripe(pdus);
  std::vector<LanedCell> in_order;
  std::uint16_t pdu_id = 0;
  for (const auto& p : pdus) {
    for (const Cell& c : segment(p, /*vci=*/7, pdu_id)) {
      in_order.push_back({static_cast<int>(c.seq % kLanes), c});
    }
    ++pdu_id;
  }
  expect_matches_reference(in_order, in_order.size(), "in order");
  expect_matches_reference(in_order, in_order.size() / 2, "in order, purged");
  // Skewed: cells queue, and the direct path must defer to drain().
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto cells = random_merge(lanes, seed);
    const std::string what = "skew seed " + std::to_string(seed);
    expect_matches_reference(cells, cells.size(), what);
    expect_matches_reference(cells, cells.size() / 3, what + ", purged");
  }
  // Short PDUs of 1..5 cells: higher lanes skip PDUs by bounds.
  std::vector<std::vector<std::uint8_t>> shorts;
  for (std::uint32_t i = 0; i < 40; ++i) {
    shorts.push_back(pattern((i % 5) * kCellPayload + 10, i));
  }
  const auto short_lanes = stripe(shorts);
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const auto cells = random_merge(short_lanes, seed);
    const std::string what = "short seed " + std::to_string(seed);
    expect_matches_reference(cells, cells.size(), what);
    expect_matches_reference(cells, cells.size() / 2, what + ", purged");
  }
}

TEST(QuadRouter, QueuedCellsAwaitAttribution) {
  // A lane-1 cell arriving before anything else must wait (ambiguous).
  const auto pdu = pattern(200, 3);  // 5 cells
  auto lanes = stripe({pdu});
  QuadRouter r;
  std::vector<Placement> pl;
  std::vector<Completion> dn;
  r.on_cell(1, lanes[1][0], pl, dn);
  EXPECT_TRUE(pl.empty());
  EXPECT_EQ(r.queued(), 1u);
  // Lane 0's first cell resolves it.
  r.on_cell(0, lanes[0][0], pl, dn);
  EXPECT_EQ(pl.size(), 2u);
  EXPECT_EQ(r.queued(), 0u);
}

}  // namespace
}  // namespace osiris::atm
