// A retransmission (ARQ) layer above the UDP/IP-like stack.
//
// The adaptor gives no delivery guarantee, and the fault plane makes that
// concrete: cells are dropped on the wire and inside the SAR loop, DMA
// transfers fail silently, and a watchdog reset throws away everything in
// flight on both halves of the board. Exactly as the paper's layering
// argues (§1: the x-kernel composes arbitrary protocols above the driver),
// reliability is a protocol configured on top, not a device property.
//
// ArqEndpoint provides per-VCI, in-order, exactly-once delivery:
//  * a 12-byte header [type | vci | flags | seq | ack] before the payload;
//    the embedded VCI catches frames misrouted by corrupted descriptors;
//  * a sliding window of unacknowledged frames, cumulative acks, and a
//    single retransmit timer on the oldest unacked frame with exponential
//    backoff and a retry budget (budget exhaustion is terminal: the VCI is
//    declared dead and further sends are refused);
//  * out-of-order frames inside the window are buffered and delivered in
//    sequence; duplicates are acked but dropped.
//
// VCIs not bound with bind() pass through unframed in both directions, so
// an endpoint can carry reliable and datagram traffic side by side.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "atm/cell.h"
#include "host/machine.h"
#include "mem/paging.h"
#include "proto/message.h"
#include "proto/stack.h"
#include "proto/tx_slots.h"
#include "sim/engine.h"

namespace osiris::proto {

constexpr std::size_t kArqHeader = 12;

struct ArqConfig {
  std::uint32_t window = 16;        ///< max unacked data frames per VCI
  sim::Duration rto = sim::ms(2);   ///< initial retransmit timeout
  double backoff = 2.0;             ///< RTO multiplier per retry
  sim::Duration max_rto = sim::ms(50);
  std::uint32_t max_retries = 10;   ///< per-frame budget; exceeding it is
                                    ///< terminal for the VCI
};

class ArqEndpoint {
 public:
  using Sink = ProtoStack::Sink;

  /// `space` backs the outgoing-frame slot ring (same registered-buffer
  /// discipline as RpcEndpoint; expose arena_buffers() for ADC use).
  ArqEndpoint(sim::Engine& eng, ProtoStack& stack, mem::AddressSpace& space,
              host::HostCpu& cpu, const host::MachineConfig& mc,
              ArqConfig cfg = {});

  /// Unregisters the driver reset hook and cancels pending timers.
  ~ArqEndpoint();

  ArqEndpoint(const ArqEndpoint&) = delete;
  ArqEndpoint& operator=(const ArqEndpoint&) = delete;

  /// (Re)installs this endpoint as the stack's sink. The constructor does
  /// this; call again if another layer has since taken the sink.
  void attach();

  /// Marks `vci` reliable: sends are framed and retransmitted, receives
  /// are reordered and deduplicated. Unbound VCIs pass through.
  void bind(atm::Vci vci);

  void set_sink(Sink s) { sink_ = std::move(s); }

  /// Queues `payload` for reliable delivery on a bound `vci` (transmits
  /// immediately when the window allows), or passes it straight to the
  /// stack on an unbound one. Returns when the sending CPU is free.
  sim::Tick send(sim::Tick at, atm::Vci vci,
                 std::vector<std::uint8_t> payload);

  /// No frame is unacknowledged or waiting for window space anywhere.
  [[nodiscard]] bool idle() const;

  /// True once `vci` exhausted its retry budget; its traffic is dropped.
  [[nodiscard]] bool dead(atm::Vci vci) const;

  /// Physical buffers of the outgoing-frame arena (ADC authorization).
  [[nodiscard]] std::vector<mem::PhysBuffer> arena_buffers() const;

  // Statistics.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  /// Frames whose embedded VCI disagreed with the VCI they arrived on.
  [[nodiscard]] std::uint64_t misrouted() const { return misrouted_; }
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }
  /// Payloads abandoned when a VCI exhausted its retry budget.
  [[nodiscard]] std::uint64_t gave_up() const { return gave_up_; }
  /// Sends that fell back to a fresh allocation because every arena slot
  /// was still owned by an in-flight transmit DMA.
  [[nodiscard]] std::uint64_t arena_overflows() const {
    return arena_overflows_;
  }
  /// Adaptor resets that found unacked frames and resynchronized: slots
  /// re-quarantined, backoff cleared, base frames retransmitted at once.
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }

 private:
  struct Unacked {
    std::uint32_t seq = 0;
    std::vector<std::uint8_t> framed;  // header + payload, as transmitted
  };
  struct TxState {
    std::uint32_t next_seq = 0;  // next sequence number to assign
    std::uint32_t base = 0;      // oldest unacknowledged
    std::deque<Unacked> window;
    std::deque<std::vector<std::uint8_t>> queue;  // waiting for window
    std::uint32_t retries = 0;   // of the current base frame
    sim::Duration cur_rto = 0;
    sim::TimerHandle timer;      // retransmit timer on the base frame
    bool timer_armed = false;
    bool dead = false;
  };
  struct RxState {
    std::uint32_t expect = 0;
    std::map<std::uint32_t, std::vector<std::uint8_t>> ooo;
  };

  void on_data(sim::Tick at, atm::Vci vci,
               std::vector<std::uint8_t>&& data);
  void handle_ack(atm::Vci vci, TxState& s, std::uint32_t ackno,
                  sim::Tick at);
  /// Transmits queued payloads while the window has room.
  sim::Tick pump(atm::Vci vci, TxState& s, sim::Tick at);
  sim::Tick send_frame(sim::Tick at, atm::Vci vci,
                       const std::vector<std::uint8_t>& framed);
  sim::Tick send_ack(sim::Tick at, atm::Vci vci);
  void arm_timer(atm::Vci vci, TxState& s, sim::Tick at);
  void on_timeout(atm::Vci vci);
  /// Driver reset hook: see the comment block in arq.cc.
  void on_driver_reset(sim::Tick at);
  void resync_kick();
  void give_up(atm::Vci vci, TxState& s);
  std::vector<std::uint8_t> frame(std::uint8_t type, atm::Vci vci,
                                  std::uint32_t seq, std::uint32_t ack,
                                  const std::vector<std::uint8_t>& payload);

  sim::Engine* eng_;
  ProtoStack* stack_;
  mem::AddressSpace* space_;
  host::HostCpu* cpu_;
  const host::MachineConfig* mc_;
  ArqConfig cfg_;
  Sink sink_;

  // Outgoing frames are written into a preallocated slot ring and sent
  // zero-copy (Message::view); the board DMAs straight out of the slot,
  // so a slot is reclaimed only at transmit completion (TxSlots).
  static constexpr std::size_t kSlots = 96;
  static constexpr std::uint32_t kSlotBytes = 16 * 1024;
  TxSlots slots_;

  std::map<atm::Vci, TxState> tx_;
  std::map<atm::Vci, RxState> rx_;

  int reset_hook_token_ = -1;
  sim::TimerHandle resync_timer_;
  bool resync_pending_ = false;

  std::uint64_t delivered_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t misrouted_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t gave_up_ = 0;
  std::uint64_t arena_overflows_ = 0;
  std::uint64_t resyncs_ = 0;
};

}  // namespace osiris::proto
