// Full-stack integrity matrix: machine pair x reassembly strategy x
// message size x alignment x checksum. Every combination must deliver the
// exact payload end to end through segmentation, striping, DMA, the
// driver, IP-like reassembly and UDP-like verification.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>

#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

// gtest appends the raw bytes of each case, padding included, to its name,
// so the padding is spelled out and zeroed, and the strategy name is held
// inline rather than as a pointer, to keep the names the same from build
// to build.
struct MatrixCase {
  MatrixCase(bool a, bool b, std::string_view s, std::uint32_t n,
             std::uint32_t off, bool cs)
      : alpha_a(a), alpha_b(b), bytes(n), offset(off), checksum(cs) {
    s.copy(strategy, sizeof(strategy) - 1);
  }
  bool alpha_a;
  bool alpha_b;
  std::uint8_t pad0[6] = {};
  char strategy[8] = {};  // "quad" or "seq", zero-filled
  std::uint32_t bytes;
  std::uint32_t offset;
  bool checksum;
  std::uint8_t pad1[7] = {};
};
static_assert(sizeof(MatrixCase) == 32);

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string s;
  s += c.alpha_a ? "A3000" : "A5000";
  s += c.alpha_b ? "B3000" : "B5000";
  s += "_";
  s += c.strategy;
  s += "_" + std::to_string(c.bytes) + "B_off" + std::to_string(c.offset);
  s += c.checksum ? "_cs" : "_nocs";
  return s;
}

class E2EMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(E2EMatrix, PayloadIntegrity) {
  const MatrixCase& c = GetParam();
  NodeConfig ca = c.alpha_a ? make_3000_600_config() : make_5000_200_config();
  NodeConfig cb = c.alpha_b ? make_3000_600_config() : make_5000_200_config();
  ca.board.reassembly = c.strategy;
  cb.board.reassembly = c.strategy;
  Testbed tb(std::move(ca), std::move(cb));
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = c.checksum;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);

  std::vector<std::uint8_t> want(c.bytes);
  for (std::uint32_t i = 0; i < c.bytes; ++i) {
    want[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  std::uint64_t delivered = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t v, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(v, vci);
    ASSERT_EQ(d.size(), want.size());
    EXPECT_EQ(d, want);
    ++delivered;
  });

  proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, want, c.offset);
  sim::Tick t = 0;
  for (int i = 0; i < 3; ++i) t = sa->send(t, vci, m);
  tb.run();
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(sb->checksum_failures(), 0u);
  EXPECT_EQ(sb->reassembly_drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, E2EMatrix,
    ::testing::Values(
        // size sweep on the homogeneous fast pair, quad strategy
        MatrixCase{true, true, "quad", 1, 0, false},
        MatrixCase{true, true, "quad", 43, 0, false},
        MatrixCase{true, true, "quad", 44, 0, false},
        MatrixCase{true, true, "quad", 45, 0, false},
        MatrixCase{true, true, "quad", 4096, 0, false},
        MatrixCase{true, true, "quad", 16384, 0, false},
        MatrixCase{true, true, "quad", 16385, 0, false},  // 2 fragments
        MatrixCase{true, true, "quad", 100000, 0, false},
        // seq strategy over the same edge sizes
        MatrixCase{true, true, "seq", 1, 0, false},
        MatrixCase{true, true, "seq", 44, 0, false},
        MatrixCase{true, true, "seq", 16385, 0, false},
        MatrixCase{true, true, "seq", 100000, 0, false},
        // unaligned application buffers (Figure 1 territory)
        MatrixCase{true, true, "quad", 10000, 1, false},
        MatrixCase{true, true, "quad", 10000, 4095, false},
        MatrixCase{true, true, "quad", 10000, 2048, true},
        MatrixCase{true, true, "seq", 10000, 3000, true},
        // heterogeneous machine pairs, both directions
        MatrixCase{false, true, "quad", 30000, 100, false},
        MatrixCase{true, false, "quad", 30000, 100, false},
        MatrixCase{false, false, "quad", 30000, 100, true},
        MatrixCase{false, true, "seq", 30000, 100, true},
        // checksum on the big sizes
        MatrixCase{true, true, "quad", 100000, 777, true},
        MatrixCase{true, true, "seq", 65536, 777, true}),
    case_name);

// Same matrix but over a skewed link: the hard mode.
class E2ESkewMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(E2ESkewMatrix, PayloadIntegrityUnderSkew) {
  const MatrixCase& c = GetParam();
  NodeConfig ca = make_3000_600_config();
  NodeConfig cb = make_3000_600_config();
  ca.board.reassembly = c.strategy;
  cb.board.reassembly = c.strategy;
  ca.link = link::skewed_config(35.0, 0xC0FFEE + c.bytes);
  Testbed tb(std::move(ca), std::move(cb));
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = c.checksum;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);

  std::vector<std::uint8_t> want(c.bytes);
  for (std::uint32_t i = 0; i < c.bytes; ++i) {
    want[i] = static_cast<std::uint8_t>(i * 48271u >> 7);
  }
  std::uint64_t delivered = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, want);
    ++delivered;
  });
  proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, want, c.offset);
  sim::Tick t = 0;
  for (int i = 0; i < 3; ++i) t = sa->send(t, vci, m);
  tb.run();
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(sb->checksum_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Skewed, E2ESkewMatrix,
    ::testing::Values(MatrixCase{true, true, "quad", 50, 0, false},
                      MatrixCase{true, true, "quad", 4000, 17, false},
                      MatrixCase{true, true, "quad", 20000, 1000, true},
                      MatrixCase{true, true, "quad", 70000, 0, true},
                      MatrixCase{true, true, "seq", 50, 0, false},
                      MatrixCase{true, true, "seq", 4000, 17, false},
                      MatrixCase{true, true, "seq", 20000, 1000, true},
                      MatrixCase{true, true, "seq", 70000, 0, true}),
    case_name);

}  // namespace
}  // namespace osiris
