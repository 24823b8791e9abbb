#include "runtime/reliable_channel.hpp"

#include <algorithm>
#include <utility>

#include "net/codec.hpp"
#include "runtime/socket_base.hpp"
#include "util/assert.hpp"

namespace wan::runtime {

namespace {

std::chrono::nanoseconds to_chrono(sim::Duration d) {
  return std::chrono::nanoseconds(d.count_nanos());
}

/// Fallback span clock for channels built without a fabric: steady time
/// since this channel came up. Useless for cross-process merging but keeps
/// standalone-test spans monotonic.
ReliableChannel::NowFn local_epoch_now() {
  const auto epoch = std::chrono::steady_clock::now();
  return [epoch] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  };
}

/// The registered encoder of an envelope type (registering the tag 16/17
/// codecs first), identified by a sample instance of it.
net::CodecRegistry::Encoder envelope_encoder(const net::Message& sample) {
  net::register_reliable_codecs();
  const std::optional<net::CodecRegistry::Encoder> encoder =
      net::CodecRegistry::global().encoder_for(sample);
  WAN_REQUIRE(encoder.has_value());
  return *encoder;
}

}  // namespace

ReliableChannel::ReliableChannel(const ReliabilityOptions& opts,
                                 EnqueueFn enqueue, ResolveFn resolve,
                                 NowFn now_nanos)
    : opts_(opts),
      enqueue_(std::move(enqueue)),
      resolve_(std::move(resolve)),
      now_nanos_(now_nanos ? std::move(now_nanos) : local_epoch_now()),
      data_encoder_(envelope_encoder(net::ReliableData(0, 0, 0, {}))),
      ack_encoder_(envelope_encoder(net::ReliableAck(0, 0))),
      jitter_rng_(opts.jitter_seed),
      retransmits_(obs::Registry::global().counter("wan_retransmits_total")),
      acks_sent_(obs::Registry::global().counter("wan_acks_total")),
      dup_drops_(obs::Registry::global().counter("wan_dup_drops_total")),
      expired_(obs::Registry::global().counter("wan_reliable_expired_total")),
      rtt_(obs::Registry::global().histogram("wan_reliable_rtt_seconds")) {
  WAN_REQUIRE(enqueue_ != nullptr && resolve_ != nullptr);
  WAN_REQUIRE(opts_.retry_budget >= 1);
  WAN_REQUIRE(opts_.backoff >= 1.0);
  timer_ = std::thread([this] { timer_loop(); });
}

ReliableChannel::~ReliableChannel() { stop(); }

void ReliableChannel::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (timer_.joinable()) timer_.join();
}

void ReliableChannel::set_peer_unreachable(UnreachableFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  unreachable_ = std::move(fn);
}

std::size_t ReliableChannel::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, flow] : send_flows_) n += flow.pending.size();
  return n;
}

std::chrono::nanoseconds ReliableChannel::jittered(
    std::chrono::nanoseconds rto) {
  const double factor =
      1.0 + opts_.jitter * (2.0 * jitter_rng_.next_double() - 1.0);
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(rto.count()) * factor));
}

void ReliableChannel::trace_flow(const char* name, obs::SpanKind kind,
                                 std::uint32_t from, std::uint32_t to,
                                 std::int64_t a1) const noexcept {
  if (!obs::enabled()) return;
  obs::record(/*trace=*/0, kind, HostId(from),
              sim::TimePoint::from_nanos(now_nanos_()), name, to, a1);
}

std::pair<std::uint64_t, std::uint64_t> ReliableChannel::ack_state(
    std::uint64_t key) const {
  const auto it = recv_flows_.find(key);
  if (it == recv_flows_.end()) return {0, 0};
  std::uint64_t bits = 0;
  for (const std::uint64_t seq : it->second.above) {
    const std::uint64_t off = seq - it->second.cum - 1;
    if (off < net::kAckBitmapWidth) bits |= (std::uint64_t{1} << off);
  }
  return {it->second.cum, bits};
}

void ReliableChannel::send_reliable(HostId from, HostId to,
                                    const net::Message& msg,
                                    const net::CodecRegistry::Encoder& encoder,
                                    const ResolvedAddr& dest) {
  std::vector<std::uint8_t> inner;
  if (!net::CodecRegistry::encode_into(encoder, from, to, msg, &inner) ||
      inner.size() + net::kReliableDataOverhead + net::kWireHeaderSize >
          net::kMaxFrameSize) {
    // Checked before a sequence number is burned: the receiver's cumulative
    // watermark would wait forever on a seq that was never transmitted.
    count_socket_drop("oversize");
    return;
  }

  std::vector<std::uint8_t> frame;
  std::uint64_t sent_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    SendFlow& flow = send_flows_[flow_key(from.value(), to.value())];
    const std::uint64_t seq = flow.next_seq++;
    sent_seq = seq;
    const auto [cum, bits] = ack_state(flow_key(to.value(), from.value()));
    const net::ReliableData data(seq, cum, bits, std::move(inner));
    const bool encoded =
        net::CodecRegistry::encode_into(data_encoder_, from, to, data, &frame);
    WAN_ASSERT(encoded);  // size pre-checked above
    const auto now = SteadyClock::now();
    Pending p;
    p.frame = frame;
    p.dest = dest;
    p.first_sent = now;
    p.rto = to_chrono(opts_.initial_rto);
    p.next_due = now + jittered(p.rto);
    flow.pending.emplace(seq, std::move(p));
  }
  cv_.notify_all();  // the new deadline may be the earliest
  trace_flow("rel.send", obs::SpanKind::kSend, from.value(), to.value(),
             static_cast<std::int64_t>(sent_seq));
  // A false return is a queue-full shed: the pending entry above already
  // guarantees a retransmit picks it up, so the drop only delays.
  (void)enqueue_(std::move(frame), dest);
}

void ReliableChannel::absorb_ack(std::uint64_t key, std::uint64_t cum,
                                 std::uint64_t bits,
                                 SteadyClock::time_point now) {
  const auto it = send_flows_.find(key);
  if (it == send_flows_.end()) return;
  auto& pending = it->second.pending;
  const auto from = static_cast<std::uint32_t>(key >> 32);
  const auto to = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
  const auto settle = [&](std::map<std::uint64_t, Pending>::iterator p) {
    if (p->second.attempts == 1) {
      const double rtt_s =
          std::chrono::duration<double>(now - p->second.first_sent).count();
      rtt_.observe_seconds(rtt_s);
      // RTT-tagged timer event (a1 = round trip in micros). Karn's rule as
      // for the histogram: only unambiguous first-transmission acks.
      trace_flow("rel.rtt", obs::SpanKind::kTimer, from, to,
                 static_cast<std::int64_t>(rtt_s * 1e6));
    }
    return pending.erase(p);
  };
  for (auto p = pending.begin(); p != pending.end() && p->first <= cum;) {
    p = settle(p);
  }
  for (std::uint64_t off = 0; bits != 0 && off < net::kAckBitmapWidth;
       ++off) {
    if ((bits & (std::uint64_t{1} << off)) == 0) continue;
    const auto p = pending.find(cum + 1 + off);
    if (p != pending.end()) settle(p);
  }
}

void ReliableChannel::send_ack(std::uint32_t data_from,
                               std::uint32_t data_to) {
  std::uint64_t cum = 0;
  std::uint64_t bits = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::tie(cum, bits) = ack_state(flow_key(data_from, data_to));
  }
  const std::optional<ResolvedAddr> dest = resolve_(data_from);
  if (!dest) {
    count_socket_drop("unknown_dest");
    return;
  }
  const net::ReliableAck ack(cum, bits);
  std::vector<std::uint8_t> frame;
  const bool encoded = net::CodecRegistry::encode_into(
      ack_encoder_, HostId(data_to), HostId(data_from), ack, &frame);
  WAN_ASSERT(encoded);
  if (enqueue_(std::move(frame), *dest)) {
    acks_sent_.inc();
    trace_flow("rel.ack", obs::SpanKind::kSend, data_to, data_from,
               static_cast<std::int64_t>(cum));
  }
}

net::MessagePtr ReliableChannel::on_data(std::uint32_t from_value,
                                         std::uint32_t to_value,
                                         const net::ReliableData& data) {
  bool duplicate = false;
  bool out_of_window = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Piggybacked ack: a data frame A -> B acknowledges the flow B -> A.
    absorb_ack(flow_key(to_value, from_value), data.cum_ack, data.ack_bits,
               SteadyClock::now());
    RecvFlow& flow = recv_flows_[flow_key(from_value, to_value)];
    if (data.seq <= flow.cum || flow.above.count(data.seq) != 0) {
      duplicate = true;
    } else if (data.seq > flow.cum + opts_.recv_window) {
      // A gap this large is hostile or pathological; accepting it would let
      // a forged seq pin unbounded dedup state. Dropped un-acked — the
      // sender retransmits once the window advances.
      out_of_window = true;
    } else {
      flow.above.insert(data.seq);
      while (!flow.above.empty() && *flow.above.begin() == flow.cum + 1) {
        flow.above.erase(flow.above.begin());
        ++flow.cum;
      }
    }
  }
  if (out_of_window) {
    count_socket_drop("seq_out_of_window");
    return nullptr;
  }
  if (duplicate) {
    dup_drops_.inc();
    send_ack(from_value, to_value);  // the original ack may have been lost
    return nullptr;
  }

  // Unwrap. The envelope promised a complete frame; validate it like any
  // other inbound frame, and insist its header agrees with the outer one (a
  // mismatch means a forged or corrupted envelope, not a routing decision).
  const net::CodecRegistry::Decoded inner = net::CodecRegistry::global().decode(
      data.inner.data(), data.inner.size());
  send_ack(from_value, to_value);  // received either way; stop retransmits
  if (!inner.ok()) {
    count_socket_drop(net::to_cstring(inner.error));
    return nullptr;
  }
  if (inner.frame->from.value() != from_value ||
      inner.frame->to.value() != to_value) {
    count_socket_drop("reliable_inner_mismatch");
    return nullptr;
  }
  return inner.frame->msg;
}

void ReliableChannel::on_ack(std::uint32_t from_value, std::uint32_t to_value,
                             const net::ReliableAck& ack) {
  std::lock_guard<std::mutex> lock(mu_);
  // An ack frame B -> A acknowledges the flow A -> B.
  absorb_ack(flow_key(to_value, from_value), ack.cum_ack, ack.ack_bits,
             SteadyClock::now());
}

void ReliableChannel::timer_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // Earliest deadline across all pending frames. The scan is linear, but
    // in-flight counts are small (bounded by the send queues); a heap would
    // buy nothing at this scale.
    std::optional<SteadyClock::time_point> next;
    for (const auto& [key, flow] : send_flows_) {
      for (const auto& [seq, p] : flow.pending) {
        if (!next || p.next_due < *next) next = p.next_due;
      }
    }
    if (!next) {
      cv_.wait(lock, [this] {
        if (stopping_) return true;
        for (const auto& [key, flow] : send_flows_) {
          if (!flow.pending.empty()) return true;
        }
        return false;
      });
      continue;
    }
    if (cv_.wait_until(lock, *next, [this] { return stopping_; })) return;

    const auto now = SteadyClock::now();
    std::vector<std::pair<std::vector<std::uint8_t>, ResolvedAddr>> resend;
    std::map<std::uint32_t, std::size_t> dead;  ///< peer -> abandoned count
    for (auto& [key, flow] : send_flows_) {
      const auto flow_from = static_cast<std::uint32_t>(key >> 32);
      const auto flow_to = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
      for (auto it = flow.pending.begin(); it != flow.pending.end();) {
        Pending& p = it->second;
        if (p.next_due > now) {
          ++it;
          continue;
        }
        if (p.attempts >= opts_.retry_budget) {
          expired_.inc();
          trace_flow("rel.expire", obs::SpanKind::kInstant, flow_from,
                     flow_to, static_cast<std::int64_t>(it->first));
          dead[static_cast<std::uint32_t>(key & 0xFFFFFFFFu)] += 1;
          it = flow.pending.erase(it);
          continue;
        }
        trace_flow("rel.retransmit", obs::SpanKind::kTimer, flow_from,
                   flow_to, static_cast<std::int64_t>(it->first));
        ++p.attempts;
        p.rto = std::min(
            std::chrono::nanoseconds(static_cast<std::int64_t>(
                static_cast<double>(p.rto.count()) * opts_.backoff)),
            to_chrono(opts_.max_rto));
        p.next_due = now + jittered(p.rto);
        resend.emplace_back(p.frame, p.dest);
        ++it;
      }
    }
    UnreachableFn unreachable = unreachable_;
    lock.unlock();
    for (auto& [frame, dest] : resend) {
      retransmits_.inc();
      // Queue-full sheds are fine: the entry is still pending and the next
      // backoff interval retries.
      (void)enqueue_(std::move(frame), dest);
    }
    if (unreachable != nullptr) {
      for (const auto& [peer, abandoned] : dead) {
        unreachable(HostId(peer), abandoned);
      }
    }
    lock.lock();
  }
}

}  // namespace wan::runtime
