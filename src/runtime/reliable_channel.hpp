// ReliableChannel: ack/retransmit/dedup over the socket fabric.
//
// The UDP fabric (runtime/socket_base.hpp) is fire-and-forget: a dropped datagram is a lost message, and today the
// protocol survives only because its own timers retransmit *semantically*
// (update dissemination, revoke forwarding, sync rounds). That leaves real
// gaps — a lost InvokeReply or QueryResponse is gone, and every protocol
// retransmit restarts a whole round trip. This layer closes them at the
// frame level, beneath the protocol and above the sockets:
//
//   * Sender: every reliable message gets a per-flow (from, to) sequence
//     number and travels wrapped in net::ReliableData. Unacked frames
//     retransmit on an exponential-backoff schedule with jitter; after
//     `retry_budget` transmissions the frame is abandoned and the
//     peer_unreachable upcall fires (the operator's cue that retrying is
//     futile — the paper's Te expiry bounds the damage).
//   * Receiver: a cumulative watermark plus a bounded out-of-order window
//     dedups redelivery, so loss recovery never double-delivers (the
//     protocol is idempotent, but exactly-once delivery keeps decision logs
//     bit-comparable to the loss-free run). Every data frame is acked
//     immediately (net::ReliableAck: cumulative + 64-bit selective bitmap),
//     and acks also piggyback on reverse-direction data frames.
//   * Classification: net::Message::reliable() routes grants, revokes,
//     queries, syncs — everything — through the channel, except heartbeats
//     (whose loss IS the signal the freeze strategy measures) and the
//     envelope itself.
//
// Delivery order is arrival order, not sequence order: UDP reorders, the
// protocol tolerates it, and holding frames back would add latency for a
// property nothing needs. The guarantee added is exactly-once delivery per
// message, or an explicit peer_unreachable.
//
// Threading: send_reliable() runs on env loop threads, on_data/on_ack on the
// transport's reactor thread, and one channel-owned timer thread drives
// retransmits and expiry. One mutex guards the flow tables; frames are
// handed to the transport's bounded outbound queue outside it. A queue-full
// shed of a reliable frame is recovered by the next retransmit — the bounded
// queue delays, it no longer silently drops.
//
// Observability: wan_retransmits_total, wan_acks_total (ack frames sent),
// wan_dup_drops_total (receive-side dedup), wan_reliable_expired_total
// (abandoned after budget), wan_reliable_rtt_seconds histogram (first-
// transmission acks only — Karn's rule keeps retransmit ambiguity out).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/reliable.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/env_options.hpp"
#include "runtime/socket_base.hpp"
#include "util/hash.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace wan::runtime {

class ReliableChannel {
 public:
  /// Hands one encoded frame to the transport's outbound queue; returns false
  /// when the bounded queue shed it (a later retransmit recovers).
  using EnqueueFn =
      std::function<bool(std::vector<std::uint8_t> frame, ResolvedAddr dest)>;
  /// Peer route lookup (acks travel to the data frame's source).
  using ResolveFn =
      std::function<std::optional<ResolvedAddr>(std::uint32_t host_value)>;
  /// Fired (off-lock, on the timer thread) when a peer exhausts the retry
  /// budget; `abandoned` counts the frames dropped for it in this sweep.
  using UnreachableFn = std::function<void(HostId peer, std::size_t abandoned)>;
  /// Runtime-clock nanos for span timestamps (steady clock since the owning
  /// fabric's epoch), so channel spans interleave correctly with the spans
  /// protocol modules record through env.now(). Empty = a channel-local
  /// epoch (standalone tests).
  using NowFn = std::function<std::int64_t()>;

  ReliableChannel(const ReliabilityOptions& opts, EnqueueFn enqueue,
                  ResolveFn resolve, NowFn now_nanos = {});
  ~ReliableChannel();
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  void set_peer_unreachable(UnreachableFn fn);

  /// Wraps `msg` (encoded through `encoder`, the caller's one registry
  /// lookup for it) in a sequenced ReliableData envelope, records it for
  /// retransmission, and enqueues the first transmission.
  void send_reliable(HostId from, HostId to, const net::Message& msg,
                     const net::CodecRegistry::Encoder& encoder,
                     const ResolvedAddr& dest);

  /// Inbound hooks (transport receive path, after fault injection — injected
  /// loss must hit the envelope so retransmission is what recovers it).
  /// on_data acks the envelope and returns the unwrapped inner message for
  /// the transport to deliver, or nullptr when there is nothing to deliver
  /// (a duplicate, an out-of-window seq, or a bad inner frame).
  [[nodiscard]] net::MessagePtr on_data(std::uint32_t from_value,
                                        std::uint32_t to_value,
                                        const net::ReliableData& data);
  void on_ack(std::uint32_t from_value, std::uint32_t to_value,
              const net::ReliableAck& ack);

  /// Stops the timer thread; idempotent. The owning transport calls it after
  /// its envs stop and before its I/O threads join (the channel enqueues
  /// into their queues).
  void stop();

  /// Sent-but-unacked frames across all flows (tests poll this to quiesce).
  [[nodiscard]] std::size_t in_flight() const;

 private:
  using SteadyClock = std::chrono::steady_clock;

  struct Pending {
    std::vector<std::uint8_t> frame;  ///< full encoded outer frame
    ResolvedAddr dest;
    SteadyClock::time_point first_sent;
    SteadyClock::time_point next_due;
    std::chrono::nanoseconds rto{};
    int attempts = 1;
  };
  struct SendFlow {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Pending> pending;  ///< keyed by seq
  };
  struct RecvFlow {
    std::uint64_t cum = 0;             ///< every seq <= cum was delivered
    std::set<std::uint64_t> above;     ///< out-of-order seqs > cum
  };

  static std::uint64_t flow_key(std::uint32_t from, std::uint32_t to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Buckets the flow tables through the seeded stable hash: flow keys are
  /// built from peer-chosen host ids, and the identity hash the standard
  /// library defaults to would let a hostile or merely unlucky id pattern
  /// cluster every flow into a handful of buckets. stable_hash64 avalanches,
  /// so the dedup window stays O(1) regardless of the id distribution.
  struct FlowHash {
    std::size_t operator()(std::uint64_t key) const noexcept {
      return static_cast<std::size_t>(stable_hash64(kFlowHashSeed, key));
    }
  };
  static constexpr std::uint64_t kFlowHashSeed = 0x57414e464c4f5753ULL;

  /// Next interval: rto * backoff^(n) clamped to max, +/- jitter. mu_ held.
  std::chrono::nanoseconds jittered(std::chrono::nanoseconds rto);
  /// Ack state of the receive flow (from -> to). mu_ held.
  std::pair<std::uint64_t, std::uint64_t> ack_state(std::uint64_t key) const;
  /// Applies a cumulative + selective ack to a send flow. mu_ held.
  void absorb_ack(std::uint64_t key, std::uint64_t cum, std::uint64_t bits,
                  SteadyClock::time_point now);
  /// Encodes and enqueues a pure ack for the flow (data_from -> data_to).
  /// Called outside mu_.
  void send_ack(std::uint32_t data_from, std::uint32_t data_to);

  /// Flow-level span (trace 0: the channel is beneath the causal chains it
  /// carries). No-op when no tracer or sink is installed.
  void trace_flow(const char* name, obs::SpanKind kind, std::uint32_t from,
                  std::uint32_t to, std::int64_t a1) const noexcept;

  void timer_loop();

  const ReliabilityOptions opts_;
  const EnqueueFn enqueue_;
  const ResolveFn resolve_;
  const NowFn now_nanos_;
  // The envelope codecs, resolved once: the hot paths take no registry lock.
  const net::CodecRegistry::Encoder data_encoder_;
  const net::CodecRegistry::Encoder ack_encoder_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::unordered_map<std::uint64_t, SendFlow, FlowHash> send_flows_;
  std::unordered_map<std::uint64_t, RecvFlow, FlowHash> recv_flows_;
  Rng jitter_rng_;
  UnreachableFn unreachable_;  ///< written before the first send in practice

  obs::Counter& retransmits_;
  obs::Counter& acks_sent_;
  obs::Counter& dup_drops_;
  obs::Counter& expired_;
  obs::Histo& rtt_;

  std::thread timer_;
};

}  // namespace wan::runtime
