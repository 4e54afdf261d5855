// Unit tests for cells, checksums, segmentation and the reference assembler.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "atm/cell.h"
#include "atm/checksum.h"
#include "atm/sar.h"
#include "sim/rng.h"

namespace osiris::atm {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 37 + seed);
  return v;
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  const std::string s = "123456789";
  EXPECT_EQ(Crc32::of({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}),
            0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = pattern(1000);
  Crc32 inc;
  inc.update({data.data(), 123});
  inc.update({data.data() + 123, 456});
  inc.update({data.data() + 579, data.size() - 579});
  EXPECT_EQ(inc.value(), Crc32::of(data));
}

TEST(Crc32, DetectsSingleBitError) {
  auto data = pattern(64);
  const auto good = Crc32::of(data);
  data[13] ^= 0x10;
  EXPECT_NE(Crc32::of(data), good);
}

// Bit-at-a-time reflected CRC-32: the definition the table-driven
// Crc32::update must reproduce for every length and chunking.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndSplit) {
  sim::Rng rng(0xC4C32);
  std::vector<std::uint8_t> data(200);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  const std::string check = "123456789";
  EXPECT_EQ(crc32_bitwise({reinterpret_cast<const std::uint8_t*>(check.data()),
                           check.size()}),
            0xCBF43926u);

  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> whole(data.data(), len);
    const std::uint32_t want = crc32_bitwise(whole);
    ASSERT_EQ(Crc32::of(whole), want) << "len " << len;
    // Chunked feeds: the first split point takes every residue mod 8, so
    // the sliced loop restarts at every alignment of its 8-byte steps.
    for (std::size_t r = 0; r < 8 && r <= len; ++r) {
      const std::size_t a = r + 8 * rng.below((len - r) / 8 + 1);
      const std::size_t b = a + rng.below(len - a + 1);
      Crc32 inc;
      inc.update(whole.subspan(0, a));
      inc.update(whole.subspan(a, b - a));
      inc.update(whole.subspan(b));
      ASSERT_EQ(inc.value(), want) << "len " << len << " split " << a << "," << b;
    }
  }
}

TEST(InternetChecksum, MatchesManualComputation) {
  // Two words: 0x0102, 0x0304 -> sum 0x0406 -> ~ = 0xFBF9.
  const std::vector<std::uint8_t> d{0x01, 0x02, 0x03, 0x04};
  EXPECT_EQ(InternetChecksum::of(d), 0xFBF9);
}

TEST(InternetChecksum, OddLengthAndChunkingAgree) {
  const auto data = pattern(777);
  InternetChecksum a;
  a.update({data.data(), 100});
  a.update({data.data() + 100, 1});
  a.update({data.data() + 101, data.size() - 101});
  EXPECT_EQ(a.value(), InternetChecksum::of(data));
}

TEST(InternetChecksum, LeadingZerosDoNotChangeSum) {
  // Zero bytes contribute nothing; an even number preserves word parity.
  const auto data = pattern(100);
  std::vector<std::uint8_t> padded(8, 0);
  padded.insert(padded.end(), data.begin(), data.end());
  EXPECT_EQ(InternetChecksum::of(padded), InternetChecksum::of(data));
}

TEST(Cell, SealAndVerify) {
  Cell c;
  c.vci = 42;
  c.seq = 7;
  c.len = 44;
  seal(c);
  EXPECT_TRUE(header_ok(c));
  c.vci ^= 0x100;
  EXPECT_FALSE(header_ok(c));
}

// The header checksum as first specified: a nine-step serial xor-rotate
// over the big-endian header bytes. header_check computes it term by term.
std::uint8_t header_check_serial(const Cell& c) {
  const std::uint8_t bytes[9] = {
      static_cast<std::uint8_t>(c.vci >> 16), static_cast<std::uint8_t>(c.vci >> 8),
      static_cast<std::uint8_t>(c.vci),       static_cast<std::uint8_t>(c.pdu_id >> 8),
      static_cast<std::uint8_t>(c.pdu_id),    static_cast<std::uint8_t>(c.seq >> 8),
      static_cast<std::uint8_t>(c.seq),       c.flags,
      c.len};
  std::uint8_t h = 0x5A;
  for (const std::uint8_t b : bytes) {
    h = static_cast<std::uint8_t>(((h << 1) | (h >> 7)) ^ b);
  }
  return h;
}

TEST(Cell, HeaderCheckMatchesSerialXorRotate) {
  sim::Rng rng(0x4EC);
  Cell c;
  EXPECT_EQ(header_check(c), header_check_serial(c));
  for (int i = 0; i < 20000; ++i) {
    c.vci = static_cast<Vci>(rng.below(kMaxVci + 1));
    c.pdu_id = static_cast<std::uint16_t>(rng.below(1u << 16));
    c.seq = static_cast<std::uint16_t>(rng.below(1u << 16));
    c.flags = static_cast<std::uint8_t>(rng.below(256));
    c.len = static_cast<std::uint8_t>(rng.below(256));
    ASSERT_EQ(header_check(c), header_check_serial(c))
        << "vci " << c.vci << " pdu " << c.pdu_id << " seq " << c.seq
        << " flags " << int{c.flags} << " len " << int{c.len};
  }
}

TEST(Trailer, EncodeDecodeRoundTrip) {
  const Trailer t{123456, 0xDEADBEEF};
  const auto bytes = encode_trailer(t);
  std::vector<std::uint8_t> wire(100, 0);
  std::copy(bytes.begin(), bytes.end(), wire.end() - 8);
  const auto back = decode_trailer(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pdu_len, t.pdu_len);
  EXPECT_EQ(back->crc, t.crc);
}

TEST(Trailer, TooShortReturnsNullopt) {
  std::vector<std::uint8_t> tiny(4);
  EXPECT_FALSE(decode_trailer(tiny).has_value());
}

TEST(Sar, CellsForBoundaries) {
  // wire = pdu + 8, cells = ceil(wire/44).
  EXPECT_EQ(cells_for(0), 1u);
  EXPECT_EQ(cells_for(36), 1u);   // 44 wire bytes exactly
  EXPECT_EQ(cells_for(37), 2u);
  EXPECT_EQ(cells_for(80), 2u);   // 88 exactly
  EXPECT_EQ(cells_for(81), 3u);
}

TEST(Sar, HeaderFlags) {
  // 6-cell PDU: BOM on 0; lane-EOM on cells 2..5 (seq+4 >= 6); LAST on 5.
  const std::uint32_t wire = 6 * kCellPayload;
  for (std::uint32_t s = 0; s < 6; ++s) {
    const Cell c = make_cell_header(1, 0, s, 6, wire);
    EXPECT_EQ(c.bom(), s == 0);
    EXPECT_EQ(c.lane_eom(), s + 4 >= 6);
    EXPECT_EQ(c.last_cell(), s == 5);
    EXPECT_EQ(c.len, kCellPayload);
  }
}

TEST(Sar, SegmentAssembleRoundTrip) {
  for (const std::size_t n : {0u, 1u, 36u, 37u, 44u, 100u, 4096u, 16384u}) {
    const auto pdu = pattern(n);
    const auto cells = segment(pdu, /*vci=*/5, /*pdu_id=*/1);
    EXPECT_EQ(cells.size(), cells_for(static_cast<std::uint32_t>(n)));
    PduAssembler asmbl;
    for (const Cell& c : cells) EXPECT_TRUE(asmbl.add(c));
    ASSERT_TRUE(asmbl.complete());
    const auto out = asmbl.finish();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, pdu);
  }
}

TEST(Sar, AssembleOutOfOrder) {
  const auto pdu = pattern(1000);
  auto cells = segment(pdu, 5, 2);
  sim::Rng rng(4);
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.below(i)]);
  }
  PduAssembler asmbl;
  for (const Cell& c : cells) EXPECT_TRUE(asmbl.add(c));
  ASSERT_TRUE(asmbl.complete());
  EXPECT_EQ(*asmbl.finish(), pdu);
}

TEST(Sar, CorruptedPayloadFailsCrc) {
  const auto pdu = pattern(500);
  auto cells = segment(pdu, 5, 3);
  cells[3].payload[10] ^= 0x40;
  PduAssembler asmbl;
  for (const Cell& c : cells) asmbl.add(c);
  ASSERT_TRUE(asmbl.complete());
  EXPECT_FALSE(asmbl.finish().has_value());
}

TEST(Sar, DuplicateIdenticalCellAccepted) {
  const auto pdu = pattern(300);
  const auto cells = segment(pdu, 5, 4);
  PduAssembler asmbl;
  for (const Cell& c : cells) asmbl.add(c);
  EXPECT_TRUE(asmbl.add(cells[1]));  // identical duplicate
  EXPECT_EQ(*asmbl.finish(), pdu);
}

TEST(Sar, IncompleteIsNotComplete) {
  const auto pdu = pattern(300);
  const auto cells = segment(pdu, 5, 5);
  PduAssembler asmbl;
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) asmbl.add(cells[i]);
  EXPECT_FALSE(asmbl.complete());
  EXPECT_FALSE(asmbl.finish().has_value());
}

TEST(Sar, TrailerSpansTwoCellsWhenPduLenNearBoundary) {
  // pdu_len = 40: wire = 48 -> 2 cells; trailer bytes 40..47 straddle the
  // cell boundary at 44.
  const auto pdu = pattern(40);
  const auto cells = segment(pdu, 9, 6);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].len, kCellPayload);
  EXPECT_EQ(cells[1].len, 4);
  PduAssembler asmbl;
  for (const Cell& c : cells) asmbl.add(c);
  EXPECT_EQ(*asmbl.finish(), pdu);
}

TEST(Sar, SegmentsAreDataBytesPlusTrailerExactly) {
  const auto pdu = pattern(200);
  const auto cells = segment(pdu, 1, 7);
  std::vector<std::uint8_t> wire;
  for (const Cell& c : cells) {
    wire.insert(wire.end(), c.payload.begin(), c.payload.begin() + c.len);
  }
  EXPECT_EQ(wire.size(), wire_len(200));
  EXPECT_TRUE(std::equal(pdu.begin(), pdu.end(), wire.begin()));
  const auto t = decode_trailer(wire);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pdu_len, 200u);
  EXPECT_EQ(t->crc, Crc32::of(pdu));
}

}  // namespace
}  // namespace osiris::atm
