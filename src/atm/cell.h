// ATM cell model for the OSIRIS link.
//
// OSIRIS carries 44 bytes of payload per cell: the 48-byte ATM payload
// minus 4 bytes of AAL overhead (paper §2.5). Our AAL header carries, per
// cell: the VCI path (in the ATM header proper), a per-PDU cell sequence
// number and PDU identifier (used by skew strategy A, §2.6), framing flags
// (begin-of-message, per-lane end-of-message used by strategy B's four
// concurrent AAL5 reassemblies, and the ATM-header "very last cell" bit the
// paper proposes for short PDUs), and a payload length for partially filled
// cells.
//
// The last cell of every PDU carries an 8-byte trailer (PDU length +
// CRC-32) inside its payload, AAL5-style, so the trailer consumes real
// link bandwidth.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

namespace osiris::atm {

/// Virtual circuit identifier. Real ATM concatenates VPI (8 bits at the
/// UNI) and VCI (16 bits) into a 24-bit demux key; we address the full
/// 24-bit space end-to-end so a million-flow table is actually reachable.
using Vci = std::uint32_t;

/// Significant bits in a Vci. Values above kMaxVci are invalid on the wire.
constexpr unsigned kVciBits = 24;
constexpr Vci kMaxVci = (Vci{1} << kVciBits) - 1;

/// Packs a VCI plus a per-VCI subkey (PDU id, tag, ...) into one uint64
/// map key: vci in the top 24 bits, subkey in the low 40. The template
/// static_asserts that the vci argument arrives as a type wide enough for
/// 24 bits — so a call site still passing a uint16_t (the pre-widening
/// key type, which would silently truncate the VPI byte) fails to compile.
struct VciKey {
  static constexpr unsigned kSubBits = 40;
  static constexpr std::uint64_t kSubMask = (std::uint64_t{1} << kSubBits) - 1;

  template <class V>
  static constexpr std::uint64_t pack(V vci, std::uint64_t sub) {
    static_assert(std::is_unsigned_v<V> && sizeof(V) * 8 >= kVciBits + 1,
                  "vci argument would truncate a 24-bit VCI");
    return (static_cast<std::uint64_t>(vci) << kSubBits) | (sub & kSubMask);
  }
  static constexpr Vci vci_of(std::uint64_t key) {
    return static_cast<Vci>(key >> kSubBits);
  }
  static constexpr std::uint64_t sub_of(std::uint64_t key) {
    return key & kSubMask;
  }
};

/// Data bytes per cell (48-byte ATM payload minus 4 bytes AAL overhead).
constexpr std::uint32_t kCellPayload = 44;

/// Bytes a cell occupies on the wire (5-byte ATM header + 48-byte payload).
constexpr std::uint32_t kCellWire = 53;

/// Number of striped 155 Mbps sublinks forming the 622 Mbps logical link.
constexpr int kLanes = 4;

/// AAL trailer: 32-bit PDU length + CRC-32, carried in the final 8 payload
/// bytes of the last cell.
constexpr std::uint32_t kTrailerBytes = 8;

enum CellFlags : std::uint8_t {
  kFlagBom = 1u << 0,       // first cell of a PDU
  kFlagLaneEom = 1u << 1,   // last cell of this PDU on its lane (strategy B)
  kFlagLastCell = 1u << 2,  // very last cell of the PDU (ATM-header bit)
};

struct Cell {
  Vci vci = 0;  // 24 significant bits (VPI·VCI)
  std::uint16_t pdu_id = 0;  // per-VCI PDU identifier (strategy A)
  std::uint16_t seq = 0;     // cell index within the PDU (strategy A)
  std::uint8_t flags = 0;
  std::uint8_t len = 0;      // valid payload bytes, 1..44
  std::uint8_t hec = 0;      // header checksum, set by seal()
  std::array<std::uint8_t, kCellPayload> payload{};

  // Observability sidecar (simulation metadata, NOT wire bytes): excluded
  // from header_check()/encode_cell() and therefore from the HEC and
  // from link bandwidth accounting.  Both are simulated ticks, so they are
  // deterministic across serial and parallel runs.
  std::uint64_t t_origin = 0;  // sender driver-enqueue tick (0 = unstamped)
  std::uint64_t t_depart = 0;  // this cell's wire-departure tick

  [[nodiscard]] bool bom() const { return (flags & kFlagBom) != 0; }
  [[nodiscard]] bool lane_eom() const { return (flags & kFlagLaneEom) != 0; }
  [[nodiscard]] bool last_cell() const { return (flags & kFlagLastCell) != 0; }
};

/// 8-bit header checksum (stand-in for ATM HEC). A cell whose header was
/// corrupted in flight fails this check and is dropped by the receiver.
///
/// Defined as a serial xor-rotate over the nine header bytes
/// b0..b8 = vci (3, big-endian), pdu_id (2), seq (2), flags, len:
/// h = 0x5A, then h = rotl(h, 1) ^ b for each byte. Rotation distributes
/// over xor, so byte i ends up rotated left 8 - i times (right i times)
/// and the seed nine times; the terms are independent, so they are
/// computed side by side instead of as a nine-step chain.
constexpr std::uint8_t header_check(const Cell& c) {
  const auto byte = [](std::uint32_t v) { return static_cast<std::uint8_t>(v); };
  return static_cast<std::uint8_t>(
      std::rotl(std::uint8_t{0x5A}, 1) ^ byte(c.vci >> 16) ^
      std::rotr(byte(c.vci >> 8), 1) ^ std::rotr(byte(c.vci), 2) ^
      std::rotr(byte(c.pdu_id >> 8u), 3) ^ std::rotr(byte(c.pdu_id), 4) ^
      std::rotr(byte(c.seq >> 8u), 5) ^ std::rotr(byte(c.seq), 6) ^
      std::rotr(c.flags, 7) ^ c.len);
}

/// Stamps the header checksum. Called by the transmit firmware.
inline void seal(Cell& c) { c.hec = header_check(c); }

/// Verifies the header checksum on arrival.
inline bool header_ok(const Cell& c) { return c.hec == header_check(c); }

}  // namespace osiris::atm
