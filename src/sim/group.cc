#include "sim/group.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace osiris::sim {

EngineGroup::EngineGroup(std::size_t partitions) {
  if (partitions == 0) {
    throw std::invalid_argument("EngineGroup: need at least one partition");
  }
  engines_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    engines_.push_back(std::make_unique<Engine>());
  }
  chan_idx_.assign(partitions * partitions, -1);
  parts_.resize(partitions);
}

EngineGroup::~EngineGroup() = default;

EngineGroup::Channel* EngineGroup::channel(std::size_t src, std::size_t dst) {
  const int idx = chan_idx_[src * partitions() + dst];
  return idx < 0 ? nullptr : channels_[static_cast<std::size_t>(idx)].get();
}

void EngineGroup::connect(std::size_t src, std::size_t dst, Duration lookahead) {
  if (src >= partitions() || dst >= partitions() || src == dst) {
    throw std::logic_error("EngineGroup::connect: bad partition pair");
  }
  if (lookahead == 0) {
    throw std::logic_error(
        "EngineGroup::connect: zero lookahead admits no conservative window");
  }
  Channel* ch = channel(src, dst);
  if (ch == nullptr) {
    auto owned = std::make_unique<Channel>();
    ch = owned.get();
    ch->src = src;
    ch->dst = dst;
    ch->idx = static_cast<std::uint32_t>(channels_.size());
    ch->lookahead = lookahead;
    chan_idx_[src * partitions() + dst] = static_cast<int>(channels_.size());
    channels_.push_back(std::move(owned));
    parts_[dst].inbound.push_back(ch);
    parts_[src].outbound.push_back(ch);
  } else {
    ch->lookahead = std::min(ch->lookahead, lookahead);
  }
}

bool EngineGroup::staged_less(const Staged& a, const Staged& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.ch != b.ch) return a.ch < b.ch;
  return a.seq < b.seq;
}

void EngineGroup::flush_overflow(Channel* ch) {
  // Producer side: move spilled envelopes back into the ring as slots free
  // up. Order across ring and overflow does not matter — the consumer
  // restores the canonical (tick, channel, seq) order from the stamped
  // seqs — but the published EOT stays capped while anything is pending.
  while (ch->overflow_head < ch->overflow.size()) {
    if (!ch->ring.try_push(std::move(ch->overflow[ch->overflow_head]))) return;
    ++ch->overflow_head;
  }
  ch->overflow.clear();
  ch->overflow_head = 0;
  ch->overflow_min = kNoHorizon;
}

void EngineGroup::publish_eot(Channel* ch, Tick ready) {
  Tick val = saturating_add(ready, ch->lookahead);
  // Anything still in the producer-side overflow is invisible to the
  // consumer: the promise cannot extend past the earliest spilled tick.
  val = std::min(val, ch->overflow_min);
  // Single-writer monotone ratchet: only advance, and only touch the
  // shared cache line when the value actually moves.
  if (val > ch->eot.load(std::memory_order_relaxed)) {
    ch->eot.store(val, std::memory_order_release);
  }
}

void EngineGroup::schedule_remote(std::size_t src, std::size_t dst, Tick at,
                                 RemoteEvent ev) {
  Channel* ch = channel(src, dst);
  if (ch == nullptr) {
    throw std::logic_error("EngineGroup::schedule_remote: no channel " +
                           std::to_string(src) + " -> " + std::to_string(dst));
  }
  const Tick earliest = engines_[src]->now() + ch->lookahead;
  if (at < earliest) {
    throw std::logic_error(
        "EngineGroup::schedule_remote: event violates the channel's declared "
        "lookahead (conservative sync would be unsound)");
  }
  if (!ev) {
    throw std::logic_error("EngineGroup::schedule_remote: empty event");
  }
  Envelope e{at, ch->next_seq++, std::move(ev)};
  flush_overflow(ch);
  if (ch->overflow_head < ch->overflow.size() || !ch->ring.try_push(std::move(e))) {
    ch->overflow_min = std::min(ch->overflow_min, at);
    ch->overflow.push_back(std::move(e));
    ++ch->overflowed;
  }
}

void EngineGroup::stage_envelope(std::size_t p, std::uint32_t ch_idx,
                                 Envelope e) {
  Part& pt = parts_[p];
  Inbox& ib = pt.inbox;
  std::uint32_t slot;
  if (!ib.free.empty()) {
    slot = ib.free.back();
    ib.free.pop_back();
    ib.slots[slot] = std::move(e.ev);
  } else {
    slot = static_cast<std::uint32_t>(ib.slots.size());
    ib.slots.push_back(std::move(e.ev));
  }
  pt.stage.push_back(Staged{e.at, ch_idx, e.seq, slot});
  std::push_heap(pt.stage.begin(), pt.stage.end(),
                 [](const Staged& a, const Staged& b) { return staged_less(b, a); });
}

void EngineGroup::inject(std::size_t p, const Staged& s) {
  // The queue node carries only {inbox, slot} — lean enough to stay inline
  // — while the fat envelope waits in the pool until its tick comes up.
  Inbox* ibp = &parts_[p].inbox;
  const std::uint32_t slot = s.slot;
  engines_[p]->schedule_at(s.at, [ibp, slot] {
    RemoteEvent ev = std::move(ibp->slots[slot]);
    ibp->free.push_back(slot);
    ev();
  });
}

void EngineGroup::drain_inbound(std::size_t p) {
  for (Channel* ch : parts_[p].inbound) {
    const std::uint32_t idx = ch->idx;
    const std::size_t got = ch->ring.drain(
        [this, p, idx](Envelope&& e) { stage_envelope(p, idx, std::move(e)); });
    ch->imported += got;
  }
}

bool EngineGroup::pump(std::size_t p, PhaseProfile* prof) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point mark;
  auto lap = [&mark] {
    const auto t = Clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - mark).count();
    mark = t;
    return static_cast<std::uint64_t>(ns);
  };
  if (prof != nullptr) mark = Clock::now();

  Part& pt = parts_[p];
  // Producer duties first: reclaim ring space for spilled exports so the
  // EOT cap can lift without waiting for a barrier.
  for (Channel* ch : pt.outbound) {
    if (ch->overflow_head < ch->overflow.size()) flush_overflow(ch);
  }
  // Safe horizon: read every inbound EOT (acquire), THEN drain the rings.
  // The order matters — an acquire of EOT value E guarantees every
  // envelope with tick < E is already visible in its ring, so after the
  // drain the staged set below the horizon is complete.
  Tick horizon = kNoHorizon;  // no inbound channel: free-run
  for (Channel* ch : pt.inbound) {
    const Tick e = ch->eot.load(std::memory_order_acquire);
    horizon = std::min(horizon, e == 0 ? Tick{0} : e - 1);
  }
  drain_inbound(p);
  if (prof != nullptr) prof->drain_ns.record(lap());

  Engine& eng = *engines_[p];
  const auto staged_min = [&pt]() {
    return pt.stage.empty() ? kNoHorizon : pt.stage.front().at;
  };
  bool progressed = false;
  for (std::size_t batches = 0; batches < kBatchesPerPump; ++batches) {
    const std::optional<Tick> tl = eng.next_event_time();
    Tick t = staged_min();
    if (tl && *tl < t) t = *tl;
    if (t == kNoHorizon || t > horizon) break;
    // Publish before dispatching tick t: every export this batch makes
    // carries at >= t + lookahead, so the promise holds the moment it is
    // visible — and the peer can already run up to it.
    for (Channel* ch : pt.outbound) publish_eot(ch, t);
    // Inject this tick's staged imports in canonical (channel, seq) order.
    // t <= horizon proves the set is complete, and injecting at the moment
    // tick t becomes next-to-dispatch pins their interleave with local
    // events to a point defined by simulation state alone.
    while (!pt.stage.empty() && pt.stage.front().at == t) {
      std::pop_heap(pt.stage.begin(), pt.stage.end(),
                    [](const Staged& a, const Staged& b) {
                      return staged_less(b, a);
                    });
      inject(p, pt.stage.back());
      pt.stage.pop_back();
    }
    eng.step_tick();
    progressed = true;
  }
  // Idle promise: the partition cannot execute anything before its next
  // local event, its earliest staged import, or the first tick a peer
  // could still send (horizon + 1) — so nothing can leave it before that
  // plus the lookahead. This is the null-message that lets an idle
  // neighbor pipeline instead of stalling.
  Tick ready = saturating_add(horizon, 1);
  if (const auto tl = eng.next_event_time()) ready = std::min(ready, *tl);
  ready = std::min(ready, staged_min());
  for (Channel* ch : pt.outbound) publish_eot(ch, ready);
  if (prof != nullptr) prof->dispatch_ns.record(lap());
  return progressed;
}

void EngineGroup::fused_round() {
  ++rounds_;
  // Every worker is quiesced at the barrier (their arrivals happen-before
  // this section), so producer- and consumer-owned state is safe to touch.
  // Hand over everything in flight: ring backlogs, then overflow spills.
  for (auto& chp : channels_) {
    Channel* ch = chp.get();
    const std::size_t dst = ch->dst;
    const std::uint32_t idx = ch->idx;
    ch->imported += ch->ring.drain([this, dst, idx](Envelope&& e) {
      stage_envelope(dst, idx, std::move(e));
    });
    for (std::size_t i = ch->overflow_head; i < ch->overflow.size(); ++i) {
      stage_envelope(dst, idx, std::move(ch->overflow[i]));
      ++ch->imported;
    }
    ch->overflow.clear();
    ch->overflow_head = 0;
    ch->overflow_min = kNoHorizon;
  }
  // Global next event: the earliest tick anything anywhere can execute.
  Tick n = kNoHorizon;
  for (std::size_t p = 0; p < partitions(); ++p) {
    if (const auto t = engines_[p]->next_event_time()) n = std::min(n, *t);
    if (!parts_[p].stage.empty()) n = std::min(n, parts_[p].stage.front().at);
  }
  if (n == kNoHorizon) {
    // Drained. Equalize the partition clocks at the latest dispatched tick
    // so follow-up scheduling against either node sees one consistent
    // "now" (and the value is a pure function of the simulation).
    Tick m = 0;
    for (const auto& eng : engines_) m = std::max(m, eng->now());
    for (auto& eng : engines_) eng->advance_to(m);
    done_ = true;
    return;
  }
  done_ = false;
  // Skip-ahead: no partition can execute before n, so no channel can
  // deliver before n + lookahead. Jumping every EOT there at once crosses
  // dead time (quiet gaps before far-future watchdogs) in a single round
  // instead of creeping lookahead-sized windows — and guarantees the
  // partition owning tick n can dispatch it, so the group always makes
  // progress after a fallback round.
  for (auto& chp : channels_) publish_eot(chp.get(), n);
}

void EngineGroup::worker(int wid, int threads) {
  using Clock = std::chrono::steady_clock;
  PhaseProfile* prof =
      profiling_ && static_cast<std::size_t>(wid) < profiles_.size()
          ? &profiles_[static_cast<std::size_t>(wid)]
          : nullptr;
  int idle = 0;
  while (true) {
    bool progress = false;
    for (std::size_t p = static_cast<std::size_t>(wid); p < partitions();
         p += static_cast<std::size_t>(threads)) {
      progress = pump(p, prof) || progress;
    }
    if (progress) {
      idle = 0;
      continue;
    }
    if (threads > 1 && ++idle < kIdleRetries) {
      // Bounded backoff before the barrier: a peer may be about to publish
      // an EOT that unblocks us, and re-pumping is far cheaper than a
      // full fused round. A lone worker has no peer to wait for: its
      // one-party barrier is a plain call whose skip-ahead unblocks it at
      // once, so it goes straight there.
      Clock::time_point t0;
      if (prof != nullptr) t0 = Clock::now();
      for (int i = 0; i < (1 << idle); ++i) detail::cpu_relax();
      if (prof != nullptr) {
        prof->stall_ns.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t0)
                .count()));
      }
      continue;
    }
    idle = 0;
    Clock::time_point t0;
    if (prof != nullptr) t0 = Clock::now();
    const SyncBarrier::WaitStats ws =
        barrier_->arrive_and_wait([this] { fused_round(); });
    if (prof != nullptr) {
      prof->barrier_ns.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
      prof->barrier_spins.record(ws.spins);
      prof->barrier_yields.record(ws.yields);
    }
    if (done_) break;
  }
}

Tick EngineGroup::run(int threads) {
  threads = std::clamp(threads, 1, static_cast<int>(partitions()));
  barrier_ = std::make_unique<SyncBarrier>(threads);
  if (profiling_ && profiles_.size() < static_cast<std::size_t>(threads)) {
    profiles_.resize(static_cast<std::size_t>(threads));
  }
  // Prime: one fused round on the calling thread publishes initial EOTs
  // (or detects an already-empty group) before any worker reads them.
  fused_round();
  if (done_) return now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    pool.emplace_back([this, w, threads] { worker(w, threads); });
  }
  worker(0, threads);
  for (auto& t : pool) t.join();
  return now();
}

Tick EngineGroup::now() const {
  Tick t = 0;
  for (const auto& eng : engines_) t = std::max(t, eng->now());
  return t;
}

Tick EngineGroup::eot(std::size_t src, std::size_t dst) const {
  const int idx = chan_idx_[src * partitions() + dst];
  if (idx < 0) throw std::logic_error("EngineGroup::eot: no such channel");
  return channels_[static_cast<std::size_t>(idx)]->eot.load(
      std::memory_order_acquire);
}

EngineGroup::PhaseProfile EngineGroup::profile() const {
  PhaseProfile out;
  for (const auto& p : profiles_) out.merge(p);
  return out;
}

EngineGroup::Stats EngineGroup::stats() const {
  Stats s;
  s.rounds = rounds_;
  for (const auto& ch : channels_) {
    s.remote_events += ch->imported;
    s.ring_overflows += ch->overflowed;
  }
  for (const auto& eng : engines_) s.dispatched += eng->dispatched();
  return s;
}

}  // namespace osiris::sim
