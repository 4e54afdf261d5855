// The 128 KB dual-port memory through which host and board communicate.
//
// From the host's perspective the OSIRIS board looks like a 128 KB region
// of memory; host software and on-board firmware jointly define its
// structure (paper §1). The memory guarantees atomicity of individual
// 32-bit loads and stores only (§2.1.1). Host-side accesses cross the
// TURBOchannel and are expensive; both sides' access counts are tracked so
// the drivers can charge the right costs and the benches can report "loads
// and stores required to communicate" (§2.1 goal 1).
//
// The transmit half is divided into sixteen 4 KB pages, each holding a
// transmit queue; the receive half likewise, each page holding a free
// queue and a receive queue (§3.2). Pair 0 belongs to the kernel driver;
// the rest are available for application device channels.
#pragma once

#include <cstdint>

#include "atm/cell.h"
#include "fault/fault.h"
#include "sim/zeroed.h"

namespace osiris::dpram {

constexpr std::uint32_t kDpramBytes = 128 * 1024;
constexpr std::uint32_t kDpramWords = kDpramBytes / 4;
constexpr std::uint32_t kPagesPerHalf = 16;
constexpr std::uint32_t kPageWords = 4096 / 4;

/// Which port an access comes through (for statistics/cost accounting).
enum class Side { kHost, kBoard };

class DualPortRam {
 public:
  DualPortRam() : words_(kDpramWords), prev_words_(kDpramWords) {}

  std::uint32_t read(Side side, std::uint32_t word_index) const;
  void write(Side side, std::uint32_t word_index, std::uint32_t value);

  /// Enables fault injection (not owned). With fault::Point::kDpramStale
  /// armed, a read may return the value the word held before its most
  /// recent write — the memory's 32-bit-atomicity guarantee degrading
  /// under marginal timing. kDescCorrupt is consulted by the queue layer
  /// through maybe_corrupt().
  void set_fault_plane(fault::FaultPlane* plane) { faults_ = plane; }

  /// Fault hook for descriptor writes: with kDescCorrupt armed, flips one
  /// random bit in one of the `nwords` words starting at `first_word`.
  void maybe_corrupt(Side side, std::uint32_t first_word, std::uint32_t nwords);

  [[nodiscard]] std::uint64_t host_accesses() const { return host_accesses_; }
  [[nodiscard]] std::uint64_t board_accesses() const { return board_accesses_; }
  [[nodiscard]] std::uint64_t stale_reads() const { return stale_reads_; }
  [[nodiscard]] std::uint64_t corrupted_words() const { return corrupted_words_; }
  void reset_stats() { host_accesses_ = board_accesses_ = 0; }

 private:
  sim::ZeroedArray<std::uint32_t> words_;
  sim::ZeroedArray<std::uint32_t> prev_words_;  // pre-write values, for kDpramStale
  fault::FaultPlane* faults_ = nullptr;
  mutable std::uint64_t host_accesses_ = 0;
  mutable std::uint64_t board_accesses_ = 0;
  mutable std::uint64_t stale_reads_ = 0;
  std::uint64_t corrupted_words_ = 0;
};

/// A buffer descriptor as passed through the queues: physical address and
/// length of one physical buffer (§2.2), the VCI it belongs to, and flags.
///
/// On the RAM a descriptor is still exactly kDescriptorWords 32-bit words
/// (the push/pop PIO cost contract depends on that): word 2 packs the
/// 24-bit VCI in its low bits and the 8 flag bits above it. Only the low
/// 8 bits of `flags` survive a queue round-trip.
struct Descriptor {
  std::uint32_t addr = 0;
  std::uint32_t len = 0;
  atm::Vci vci = 0;          // 24 significant bits
  std::uint16_t flags = 0;   // low 8 bits are wire-real
  std::uint32_t user = 0;    // opaque cookie echoed back to the host

  friend bool operator==(const Descriptor&, const Descriptor&) = default;
};

enum DescriptorFlags : std::uint16_t {
  kDescEop = 1u << 0,      // last buffer of a PDU
  kDescAborted = 1u << 1,  // reassembly abandoned; recycle, don't deliver
  // Ownership seal, maintained by QueueWriter/QueueReader and invisible to
  // queue clients: the writer stamps each descriptor with the parity of
  // its current lap around the ring, and the reader refuses entries whose
  // seal does not match the lap it expects at that slot. A glitched
  // (stale) read of the head word near wrap-around can otherwise expose
  // previous-lap descriptors as fresh entries.
  kDescLapSeal = 1u << 2,
};

/// Rx PDU tag carried in descriptor flag bits 3..7: distinguishes buffers
/// of interleaved PDUs on the same VCI at the host demux (see
/// board::rx_desc_flags / OsirisDriver::drain_step).
constexpr std::uint32_t kDescTagShift = 3;
constexpr std::uint32_t kDescTagMask = 0x1F;  // 5 bits

constexpr std::uint32_t kDescriptorWords = 4;

/// Where a queue lives inside the dual-port RAM.
struct QueueLayout {
  std::uint32_t base_word = 0;  // [base]=head, [base+1]=tail, [base+2]=ctrl
  std::uint32_t capacity = 0;   // descriptor slots (holds capacity-1 entries)

  [[nodiscard]] std::uint32_t head_word() const { return base_word; }
  [[nodiscard]] std::uint32_t tail_word() const { return base_word + 1; }
  [[nodiscard]] std::uint32_t ctrl_word() const { return base_word + 2; }
  [[nodiscard]] std::uint32_t slot_word(std::uint32_t i) const {
    return base_word + 3 + i * kDescriptorWords;
  }
  /// Words this layout occupies.
  [[nodiscard]] std::uint32_t words() const { return 3 + capacity * kDescriptorWords; }
};

enum CtrlFlags : std::uint32_t {
  // Host sets this after finding the transmit queue full; the transmit
  // processor interrupts once the queue drains to half empty (§2.1.2).
  kCtrlWantHalfEmptyIrq = 1u << 0,
};

/// Firmware heartbeat words (proof-of-life for the host watchdog): the
/// last word of each half's page 0, which no queue layout reaches — a
/// full-page transmit queue uses 3 + 255*4 = 1023 of the 1024 words, and
/// the receive half's page 0 splits into two sub-half-page queues. Each
/// board processor increments its word on a bounded timer; a word that
/// stops advancing means that half's firmware loop is wedged.
constexpr std::uint32_t kTxHeartbeatWord = kPageWords - 1;
constexpr std::uint32_t kRxHeartbeatWord =
    kPagesPerHalf * kPageWords + kPageWords - 1;

/// Queue layouts for one transmit/receive page pair. Pair 0 is the kernel
/// driver's; pairs 1..15 are mappable as application device channels.
struct ChannelLayout {
  QueueLayout tx;    // host -> board: buffers to transmit
  QueueLayout free;  // host -> board: empty receive buffers
  QueueLayout recv;  // board -> host: filled receive buffers
};

/// Computes the layout of pair `index` (0..15). `tx_capacity` and
/// `rx_capacity` default to the paper's 64-entry queues and are clamped to
/// what fits in a page.
ChannelLayout channel_layout(std::uint32_t index, std::uint32_t tx_capacity = 64,
                             std::uint32_t rx_capacity = 64);

}  // namespace osiris::dpram
