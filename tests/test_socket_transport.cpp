// SocketTransport tests: ThreadedEnvs in one process, each transport on its
// own 127.0.0.1 ephemeral port, exchanging real datagrams through the wire
// codec. Covers delivery onto the destination loop, round trips, one-way
// inbound blocking (the partition primitive of the multi-process smoke),
// down endpoints, labelled send-path drops, idempotent shutdown, and
// topology parsing; plus the batched-I/O behaviors: bursts larger than one
// syscall batch all arrive, and a recvmmsg batch mixing valid frames with
// garbage rejects per-frame (each reject in its labelled counter, every
// valid neighbour still delivered), and the batched hand-off keeps each
// destination loop's frames in send order, drops a stopped loop's share
// without holding up the other loop's, and drops a down endpoint's frames
// (and only those) as endpoint_down. Sender authenticity is pinned at the
// transport (a frame whose header names a sender it did not come from is a
// spoofed_source drop) and end to end (a forged manager reply cannot grant
// access). The deterministic fault plan is exercised at the transport
// layer: same plan + same arrival sequence -> same losses, run to run;
// duplication doubles deliveries; reordering swaps adjacent frames.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "proto/host.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "runtime/socket_base.hpp"
#include "runtime/threaded_env.hpp"

namespace wan::runtime {
namespace {

bool eventually(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::uint64_t drop_count(const char* reason) {
  return obs::Registry::global()
      .counter(std::string("wan_udp_drops_total{reason=\"") + reason + "\"}")
      .value();
}

std::unique_ptr<SocketTransport> make_transport() {
  EnvOptions opts;
  opts.listen = "127.0.0.1:0";
  std::string error;
  auto t = SocketTransport::create(opts, &error);
  EXPECT_NE(t, nullptr) << error;
  return t;
}

/// Binds a raw UDP socket to an ephemeral 127.0.0.1 port and returns the
/// port, so a test can register the socket as some host's address.
std::uint16_t bind_loopback(int fd) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  return ntohs(addr.sin_port);
}

/// Two single-node processes' worth of plumbing, minus the processes: A and
/// B each get their own socket, env, and endpoint, cross-wired via add_peer.
struct Pair {
  Pair() {
    proto::register_wire_messages();
    a = make_transport();
    b = make_transport();
    a->add_peer(HostId(2), NodeAddress{"127.0.0.1", b->local_port()});
    b->add_peer(HostId(1), NodeAddress{"127.0.0.1", a->local_port()});
    env_a = std::make_unique<ThreadedEnv>(*a);
    env_b = std::make_unique<ThreadedEnv>(*b);
  }
  ~Pair() {
    a->shutdown();
    b->shutdown();
  }

  std::unique_ptr<SocketTransport> a, b;
  std::unique_ptr<ThreadedEnv> env_a, env_b;
};

/// One receiving node plus a raw sender socket, for injecting arbitrary
/// datagrams (garbage, hand-built frames, fault-plan probes) from outside
/// any transport. The raw socket is registered as host 1's address, the
/// sender its frames claim.
struct RawSenderRig {
  explicit RawSenderRig(const FaultPlan* plan = nullptr) {
    proto::register_wire_messages();
    transport = make_transport();
    if (plan != nullptr) transport->set_fault_plan(*plan);
    env = std::make_unique<ThreadedEnv>(*transport);
    env->transport().register_endpoint(
        HostId(2), [this](HostId, const net::MessagePtr& msg) {
          const std::lock_guard<std::mutex> lock(mu);
          seqs.push_back(
              static_cast<const proto::HeartbeatPing&>(*msg).seq);
        });
    send_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(send_fd, 0);
    transport->add_peer(HostId(1),
                        NodeAddress{"127.0.0.1", bind_loopback(send_fd)});
    std::memset(&dest, 0, sizeof dest);
    dest.sin_family = AF_INET;
    dest.sin_port = htons(transport->local_port());
    dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  ~RawSenderRig() {
    if (send_fd >= 0) ::close(send_fd);
    transport->shutdown();
  }

  void send_raw(const std::vector<std::uint8_t>& bytes) {
    send_raw_from(send_fd, bytes);
  }
  void send_raw_from(int fd, const std::vector<std::uint8_t>& bytes) {
    const auto sent =
        ::sendto(fd, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dest), sizeof dest);
    EXPECT_EQ(static_cast<std::size_t>(sent), bytes.size());
  }

  /// A valid frame carrying HeartbeatPing{app, seq} from `from` to host 2.
  static std::vector<std::uint8_t> ping_frame(std::uint64_t seq,
                                              HostId from = HostId(1)) {
    const auto msg = net::make_message<proto::HeartbeatPing>(AppId(1), seq);
    const auto frame =
        net::CodecRegistry::global().encode(from, HostId(2), *msg);
    EXPECT_TRUE(frame.has_value());
    return frame.value_or(std::vector<std::uint8_t>{});
  }

  std::size_t delivered() {
    const std::lock_guard<std::mutex> lock(mu);
    return seqs.size();
  }
  std::vector<std::uint64_t> delivered_seqs() {
    const std::lock_guard<std::mutex> lock(mu);
    return seqs;
  }

  std::unique_ptr<SocketTransport> transport;
  std::unique_ptr<ThreadedEnv> env;
  std::mutex mu;
  std::vector<std::uint64_t> seqs;
  int send_fd = -1;
  sockaddr_in dest{};
};

TEST(SocketTransport, DeliversAcrossRealSockets) {
  Pair pair;
  std::atomic<int> received{0};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint32_t> from_value{0};
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId from, const net::MessagePtr& msg) {
        from_value = from.value();
        seq = static_cast<const proto::HeartbeatPing&>(*msg).seq;
        received.fetch_add(1);
      });
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});

  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(7), 4242));
  });
  ASSERT_TRUE(eventually([&] { return received.load() == 1; }));
  EXPECT_EQ(from_value.load(), 1u);
  EXPECT_EQ(seq.load(), 4242u);
}

TEST(SocketTransport, RoundTripRequestReply) {
  Pair pair;
  std::atomic<int> replies{0};
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId from, const net::MessagePtr& msg) {
        const auto& ping = static_cast<const proto::HeartbeatPing&>(*msg);
        pair.env_b->transport().send(
            HostId(2), from,
            net::make_message<proto::HeartbeatPong>(ping.app, ping.seq));
      });
  pair.env_a->transport().register_endpoint(
      HostId(1), [&](HostId, const net::MessagePtr& msg) {
        if (static_cast<const proto::HeartbeatPong&>(*msg).seq == 5) {
          replies.fetch_add(1);
        }
      });
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 5));
  });
  ASSERT_TRUE(eventually([&] { return replies.load() == 1; }));
}

TEST(SocketTransport, BlockInboundFromDropsOneDirectionOnly) {
  Pair pair;
  std::atomic<int> at_b{0};
  std::atomic<int> at_a{0};
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr&) { at_b.fetch_add(1); });
  pair.env_a->transport().register_endpoint(
      HostId(1), [&](HostId, const net::MessagePtr&) { at_a.fetch_add(1); });

  const std::uint64_t blocked_before = drop_count("blocked");
  pair.b->block_inbound_from(HostId(1), true);
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  ASSERT_TRUE(
      eventually([&] { return drop_count("blocked") > blocked_before; }));
  EXPECT_EQ(at_b.load(), 0);

  pair.env_b->run_sync([&] {
    pair.env_b->transport().send(
        HostId(2), HostId(1),
        net::make_message<proto::HeartbeatPong>(AppId(1), 2));
  });
  ASSERT_TRUE(eventually([&] { return at_a.load() == 1; }));

  pair.b->block_inbound_from(HostId(1), false);
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 3));
  });
  ASSERT_TRUE(eventually([&] { return at_b.load() == 1; }));
}

/// A message type no codec is registered for.
struct UnregisteredMessage final : net::Message {
  WAN_MESSAGE_TYPE("TestUnregisteredMessage")
};

TEST(SocketTransport, SendPathDropReasonsAreCounted) {
  Pair pair;
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});

  const std::uint64_t unknown_before = drop_count("unknown_dest");
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(77),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  EXPECT_EQ(drop_count("unknown_dest"), unknown_before + 1);

  const std::uint64_t down_before = drop_count("endpoint_down");
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(99), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  EXPECT_EQ(drop_count("endpoint_down"), down_before + 1);

  const std::uint64_t oversize_before = drop_count("oversize");
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::InvokeRequest>(
            AppId(1), UserId(2), 3, 4, auth::Signature{5},
            std::string(net::kMaxFrameSize, 'x'), 6));
  });
  EXPECT_EQ(drop_count("oversize"), oversize_before + 1);

  // An unregistered type is its own reason, never folded into oversize.
  const std::uint64_t unregistered_before = drop_count("unregistered_type");
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(HostId(1), HostId(2),
                                 net::make_message<UnregisteredMessage>());
  });
  EXPECT_EQ(drop_count("unregistered_type"), unregistered_before + 1);
  EXPECT_EQ(drop_count("oversize"), oversize_before + 1);
}

TEST(SocketTransport, DownEndpointDropsInboundDeliveries) {
  Pair pair;
  std::atomic<int> at_b{0};
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr&) { at_b.fetch_add(1); });
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});

  const std::uint64_t down_before = drop_count("endpoint_down");
  pair.env_b->transport().set_endpoint_down(HostId(2), true);
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  ASSERT_TRUE(
      eventually([&] { return drop_count("endpoint_down") > down_before; }));
  EXPECT_EQ(at_b.load(), 0);

  pair.env_b->transport().set_endpoint_down(HostId(2), false);
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 2));
  });
  ASSERT_TRUE(eventually([&] { return at_b.load() == 1; }));
}

TEST(SocketTransport, CreateRejectsBadOptions) {
  proto::register_wire_messages();
  {
    EnvOptions opts;
    opts.listen = "not-an-address";
    std::string error;
    EXPECT_EQ(SocketTransport::create(opts, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
  {
    EnvOptions opts;
    opts.listen = "127.0.0.1:0";
    opts.topology_path = "/nonexistent/topology.txt";
    std::string error;
    EXPECT_EQ(SocketTransport::create(opts, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
}

TEST(SocketTransport, ShutdownIsIdempotentAndStopsEnvs) {
  auto t = make_transport();
  auto env = std::make_unique<ThreadedEnv>(*t);
  env->transport().register_endpoint(HostId(1),
                                     [](HostId, const net::MessagePtr&) {});
  t->shutdown();
  t->shutdown();  // second call must be a no-op
  env.reset();
}

// --------------------------------------------------- batched-I/O behavior

// A burst several times kBatch wide: sendmmsg flushes it in batches, the
// receive side drains with recvmmsg across multiple partial batches, and
// every frame arrives exactly once.
TEST(SocketTransport, BurstLargerThanOneBatchAllArrives) {
  Pair pair;
  constexpr int kFrames = static_cast<int>(SocketTransport::kBatch) * 5;
  std::mutex mu;
  std::set<std::uint64_t> seen;
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr& msg) {
        const std::lock_guard<std::mutex> lock(mu);
        seen.insert(static_cast<const proto::HeartbeatPing&>(*msg).seq);
      });
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});

  pair.env_a->run_sync([&] {
    for (int i = 0; i < kFrames; ++i) {
      pair.env_a->transport().send(
          HostId(1), HostId(2),
          net::make_message<proto::HeartbeatPing>(
              AppId(1), static_cast<std::uint64_t>(i)));
    }
  });
  ASSERT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(mu);
    return seen.size() == static_cast<std::size_t>(kFrames);
  }));
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), static_cast<std::uint64_t>(kFrames - 1));
}

// One recvmmsg batch mixing valid frames with every reject class: rejects
// are per-frame (each lands in its labelled counter) and never poison the
// valid frames around them.
TEST(SocketTransport, PartialBatchRejectsGarbagePerFrame) {
  RawSenderRig rig;
  const std::uint64_t bad_magic_before = drop_count("bad_magic");
  const std::uint64_t truncated_before = drop_count("truncated");
  const std::uint64_t unknown_before = drop_count("unknown_tag");

  const auto valid = RawSenderRig::ping_frame(1);
  std::vector<std::uint8_t> truncated(valid.begin(), valid.begin() + 5);
  std::vector<std::uint8_t> bad_magic(net::kWireHeaderSize, 0x41);
  auto unknown_tag = valid;
  const std::uint16_t tag = 999;
  std::memcpy(unknown_tag.data() + 4, &tag, sizeof tag);

  // Interleave so garbage sits between valid frames inside one batch.
  rig.send_raw(RawSenderRig::ping_frame(10));
  rig.send_raw(truncated);
  rig.send_raw(RawSenderRig::ping_frame(11));
  rig.send_raw(bad_magic);
  rig.send_raw(RawSenderRig::ping_frame(12));
  rig.send_raw(unknown_tag);
  rig.send_raw(RawSenderRig::ping_frame(13));

  ASSERT_TRUE(eventually([&] { return rig.delivered() == 4; }));
  EXPECT_EQ(rig.delivered_seqs(),
            (std::vector<std::uint64_t>{10, 11, 12, 13}));
  EXPECT_TRUE(eventually([&] {
    return drop_count("bad_magic") == bad_magic_before + 1 &&
           drop_count("truncated") == truncated_before + 1 &&
           drop_count("unknown_tag") == unknown_before + 1;
  }));
  // Nothing more trickles in late.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rig.delivered(), 4u);
}

// --------------------------------------------------------- batched hand-off

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// One transport serving two endpoints on two different loops — host 2 on
/// loops[0], host 3 on loops[1] — fed by a raw socket registered as host 1
/// that sends whole bursts with one sendmmsg, so a burst reaches the
/// reactor as (at most a few) recvmmsg batches.
struct TwoLoopRig {
  TwoLoopRig() {
    proto::register_wire_messages();
    transport = make_transport();
    for (std::size_t i = 0; i < 2; ++i) {
      loops[i] = std::make_unique<ThreadedEnv>(*transport);
      loops[i]->transport().register_endpoint(
          HostId(2 + static_cast<std::uint32_t>(i)),
          [this, i](HostId, const net::MessagePtr& msg) {
            const std::lock_guard<std::mutex> lock(mu);
            seqs[i].push_back(
                static_cast<const proto::HeartbeatPing&>(*msg).seq);
          });
    }
    send_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(send_fd, 0);
    transport->add_peer(HostId(1),
                        NodeAddress{"127.0.0.1", bind_loopback(send_fd)});
    dest.sin_family = AF_INET;
    dest.sin_port = htons(transport->local_port());
    dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  ~TwoLoopRig() {
    if (send_fd >= 0) ::close(send_fd);
    transport->shutdown();
  }

  /// Pings seq first .. first+n-1, alternating host 2 (even seq) and host 3
  /// (odd seq), in one sendmmsg burst.
  void burst(std::uint64_t first, unsigned n) {
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::uint64_t seq = first; seq < first + n; ++seq) {
      const auto msg = net::make_message<proto::HeartbeatPing>(AppId(1), seq);
      const auto frame = net::CodecRegistry::global().encode(
          HostId(1), HostId(seq % 2 == 0 ? 2 : 3), *msg);
      ASSERT_TRUE(frame.has_value());
      frames.push_back(*frame);
    }
    std::vector<iovec> iov(n);
    std::vector<mmsghdr> headers(n);
    for (unsigned i = 0; i < n; ++i) {
      iov[i].iov_base = frames[i].data();
      iov[i].iov_len = frames[i].size();
      headers[i].msg_hdr = msghdr{};
      headers[i].msg_hdr.msg_name = &dest;
      headers[i].msg_hdr.msg_namelen = sizeof dest;
      headers[i].msg_hdr.msg_iov = &iov[i];
      headers[i].msg_hdr.msg_iovlen = 1;
    }
    for (unsigned sent = 0; sent < n;) {
      const int r = ::sendmmsg(send_fd, headers.data() + sent, n - sent, 0);
      ASSERT_GT(r, 0);
      sent += static_cast<unsigned>(r);
    }
  }

  std::vector<std::uint64_t> got(std::size_t loop) {
    const std::lock_guard<std::mutex> lock(mu);
    return seqs[loop];
  }

  /// seq first, first+2, ... — one host's half of burst(first, 2 * count).
  static std::vector<std::uint64_t> every_other(std::uint64_t first,
                                                std::size_t count) {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(first + 2 * i);
    return out;
  }

  std::unique_ptr<SocketTransport> transport;
  std::unique_ptr<ThreadedEnv> loops[2];
  std::mutex mu;
  std::vector<std::uint64_t> seqs[2];
  int send_fd = -1;
  sockaddr_in dest{};
};

// A kBatch-wide burst interleaving two endpoints on two loops: each loop
// receives exactly its frames, in send order, and every hand-off carries at
// least one delivery.
TEST(SocketTransport, BatchToTwoLoopsArrivesInSendOrder) {
  TwoLoopRig rig;
  constexpr unsigned kFrames = SocketTransport::kBatch;
  const std::uint64_t deliveries_before =
      counter_value("wan_udp_deliveries_total");
  const std::uint64_t handoffs_before = counter_value("wan_udp_handoffs_total");
  rig.burst(0, kFrames);
  ASSERT_TRUE(eventually([&] {
    return rig.got(0).size() == kFrames / 2 && rig.got(1).size() == kFrames / 2;
  }));
  EXPECT_EQ(rig.got(0), TwoLoopRig::every_other(0, kFrames / 2));
  EXPECT_EQ(rig.got(1), TwoLoopRig::every_other(1, kFrames / 2));
  const std::uint64_t deliveries =
      counter_value("wan_udp_deliveries_total") - deliveries_before;
  const std::uint64_t handoffs =
      counter_value("wan_udp_handoffs_total") - handoffs_before;
  EXPECT_EQ(deliveries, kFrames);
  EXPECT_GE(handoffs, 2u);  // both loops got at least one batch
  EXPECT_LE(handoffs, deliveries);
}

// A stopped loop refuses its share of each batch; the other loop's share
// still arrives, complete and in order, without waiting on it.
TEST(SocketTransport, BatchToStoppedLoopIsDroppedWithoutDelayingOther) {
  TwoLoopRig rig;
  constexpr unsigned kFrames = SocketTransport::kBatch;
  rig.loops[0]->stop();
  rig.burst(0, kFrames);
  ASSERT_TRUE(eventually([&] { return rig.got(1).size() == kFrames / 2; },
                         /*timeout_ms=*/2000));
  EXPECT_EQ(rig.got(1), TwoLoopRig::every_other(1, kFrames / 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(rig.got(0).empty());
}

// Host 3 goes down between two halves of a burst: endpoint_down counts
// exactly its frames of the second half, host 2 keeps receiving everything.
TEST(SocketTransport, EndpointDownMidBurstCountsExactlyItsFrames) {
  TwoLoopRig rig;
  constexpr unsigned kHalf = SocketTransport::kBatch;
  rig.burst(0, kHalf);
  ASSERT_TRUE(eventually([&] { return rig.got(1).size() == kHalf / 2; }));
  rig.loops[1]->transport().set_endpoint_down(HostId(3), true);
  const std::uint64_t down_before = drop_count("endpoint_down");
  rig.burst(kHalf, kHalf);
  ASSERT_TRUE(eventually([&] { return rig.got(0).size() == kHalf; }));
  ASSERT_TRUE(eventually(
      [&] { return drop_count("endpoint_down") - down_before >= kHalf / 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(drop_count("endpoint_down") - down_before, kHalf / 2);
  EXPECT_EQ(rig.got(0), TwoLoopRig::every_other(0, kHalf));
  EXPECT_EQ(rig.got(1), TwoLoopRig::every_other(1, kHalf / 2));
}

// ------------------------------------------------ deterministic fault plan

// Same plan, same arrival sequence, fresh transport: the seeded fault
// stream makes identical drop decisions, so the surviving seq sets match
// exactly run to run.
TEST(SocketTransport, InjectedLossIsDeterministicAcrossRuns) {
  constexpr int kFrames = 100;
  FaultPlan plan;
  plan.seed = 99;
  plan.loss = 0.4;

  auto run_once = [&](std::vector<std::uint64_t>* survivors,
                      std::uint64_t* lost) {
    RawSenderRig rig(&plan);
    const std::uint64_t lost_before = drop_count("injected_loss");
    for (int i = 0; i < kFrames; ++i) {
      rig.send_raw(RawSenderRig::ping_frame(static_cast<std::uint64_t>(i)));
    }
    // Every frame is either delivered or counted as an injected loss.
    ASSERT_TRUE(eventually([&] {
      return rig.delivered() + (drop_count("injected_loss") - lost_before) >=
             static_cast<std::size_t>(kFrames);
    }));
    *survivors = rig.delivered_seqs();
    *lost = drop_count("injected_loss") - lost_before;
  };

  std::vector<std::uint64_t> survivors_a, survivors_b;
  std::uint64_t lost_a = 0, lost_b = 0;
  run_once(&survivors_a, &lost_a);
  run_once(&survivors_b, &lost_b);
  EXPECT_EQ(survivors_a, survivors_b);
  EXPECT_EQ(lost_a, lost_b);
  EXPECT_GT(lost_a, 0u);
  EXPECT_LT(lost_a, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(survivors_a.size() + lost_a, static_cast<std::size_t>(kFrames));
}

TEST(SocketTransport, DuplicatePlanDeliversEveryFrameTwice) {
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate = 1.0;
  RawSenderRig rig(&plan);
  for (std::uint64_t i = 0; i < 5; ++i) {
    rig.send_raw(RawSenderRig::ping_frame(i));
  }
  ASSERT_TRUE(eventually([&] { return rig.delivered() == 10; }));
  EXPECT_EQ(rig.delivered_seqs(),
            (std::vector<std::uint64_t>{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}));
}

TEST(SocketTransport, ReorderPlanSwapsAdjacentFrames) {
  FaultPlan plan;
  plan.seed = 5;
  plan.reorder = 1.0;
  RawSenderRig rig(&plan);
  rig.send_raw(RawSenderRig::ping_frame(1));
  // Let the first frame arrive (and be held) before the second is sent, so
  // the arrival order is fixed and the swap is unambiguous.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rig.send_raw(RawSenderRig::ping_frame(2));
  ASSERT_TRUE(eventually([&] { return rig.delivered() == 2; }));
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{2, 1}));
}

// ------------------------------------------------------ sender authenticity

// The header's sender must match the datagram's source address: a frame
// claiming registered host 1 from an unregistered port, and a frame from
// host 1's own address claiming an unregistered id, are both spoofed_source
// drops; host 1's genuine frame still delivers.
TEST(SocketTransport, FrameFromWrongSourceAddressIsDropped) {
  RawSenderRig rig;
  const int forger_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(forger_fd, 0);
  bind_loopback(forger_fd);
  const std::uint64_t spoofed_before = drop_count("spoofed_source");

  rig.send_raw_from(forger_fd, RawSenderRig::ping_frame(1));
  rig.send_raw(RawSenderRig::ping_frame(2, HostId(3)));
  ASSERT_TRUE(eventually(
      [&] { return drop_count("spoofed_source") == spoofed_before + 2; }));

  rig.send_raw(RawSenderRig::ping_frame(3));
  ASSERT_TRUE(eventually([&] { return rig.delivered() == 1; }));
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(drop_count("spoofed_source"), spoofed_before + 2);
  ::close(forger_fd);
}

/// An app host (id 100) on its own transport whose three managers (ids
/// 0-2, C = 2) are all registered at one raw "manager" socket the test
/// drives by hand, so the test sees every QueryRequest and decides who
/// answers it.
struct ForgedReplyRig {
  static constexpr AppId kApp{1};
  static constexpr HostId kHost{100};

  ForgedReplyRig() {
    proto::register_wire_messages();
    manager_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(manager_fd, 0);
    const std::uint16_t manager_port = bind_loopback(manager_fd);
    timeval tv{};
    tv.tv_usec = 20 * 1000;
    ::setsockopt(manager_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    transport = make_transport();
    std::vector<HostId> managers;
    for (std::uint32_t m = 0; m < 3; ++m) {
      managers.push_back(HostId(m));
      transport->add_peer(HostId(m), NodeAddress{"127.0.0.1", manager_port});
    }
    names.set_managers(kApp, managers);
    std::memset(&host_addr, 0, sizeof host_addr);
    host_addr.sin_family = AF_INET;
    host_addr.sin_port = htons(transport->local_port());
    host_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

    proto::ProtocolConfig config;
    config.check_quorum = 2;
    config.max_attempts = 2;
    config.query_timeout = sim::Duration::millis(300);
    env = std::make_unique<ThreadedEnv>(*transport);
    host = std::make_unique<proto::AppHost>(kHost, *env,
                                            clk::LocalClock::perfect(), names,
                                            keys, config);
    env->run_sync([this] {
      host->controller().register_app(
          kApp, [](UserId, const std::string& p) { return p; });
    });
  }
  ~ForgedReplyRig() {
    transport->shutdown();
    ::close(manager_fd);
  }

  /// Starts a check for `user`, then answers every QueryRequest reaching the
  /// manager socket with a "granted" QueryResponse from the queried manager,
  /// sent through `reply_fd`, until the check decides.
  proto::AccessDecision check_answering_from(int reply_fd, UserId user) {
    std::mutex mu;
    std::optional<proto::AccessDecision> decision;
    env->run_sync([&] {
      host->controller().check_access(
          kApp, user, [&](const proto::AccessDecision& d) {
            const std::lock_guard<std::mutex> lock(mu);
            decision = d;
          });
    });
    const auto decided = [&] {
      const std::lock_guard<std::mutex> lock(mu);
      return decision.has_value();
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::vector<std::uint8_t> buf(65536);
    while (!decided() && std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(manager_fd, buf.data(), buf.size(), 0);
      if (n <= 0) continue;
      const auto in = net::CodecRegistry::global().decode(
          buf.data(), static_cast<std::size_t>(n));
      if (!in.ok()) continue;
      const auto* query = net::message_cast<proto::QueryRequest>(in.frame->msg);
      if (query == nullptr) continue;
      const proto::QueryResponse granted(
          query->app, query->user, query->query_id,
          acl::RightSet(acl::Right::kUse),
          acl::Version{1, in.frame->to, 0}, sim::Duration::seconds(60));
      const auto frame =
          net::CodecRegistry::global().encode(in.frame->to, kHost, granted);
      EXPECT_TRUE(frame.has_value());
      ::sendto(reply_fd, frame->data(), frame->size(), 0,
               reinterpret_cast<const sockaddr*>(&host_addr), sizeof host_addr);
    }
    EXPECT_TRUE(decided());
    const std::lock_guard<std::mutex> lock(mu);
    return decision.value_or(proto::AccessDecision{});
  }

  int manager_fd = -1;
  sockaddr_in host_addr{};
  ns::NameService names;
  auth::KeyRegistry keys;
  std::unique_ptr<SocketTransport> transport;
  std::unique_ptr<ThreadedEnv> env;
  std::unique_ptr<proto::AppHost> host;
};

// A local process on an unregistered port forges well-formed "granted"
// QueryResponses claiming the queried managers' ids, answering the host's
// pending quorum before any genuine manager could. The transport drops them
// as spoofed_source and the check denies. The same replies sent from the
// managers' registered address are accepted, so the forgeries failed on
// their source alone.
TEST(SocketTransport, ForgedManagerReplyCannotGrantAccess) {
  ForgedReplyRig rig;
  const int attacker_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(attacker_fd, 0);
  bind_loopback(attacker_fd);
  const std::uint64_t spoofed_before = drop_count("spoofed_source");

  const proto::AccessDecision forged =
      rig.check_answering_from(attacker_fd, UserId(7));
  EXPECT_FALSE(forged.allowed);
  EXPECT_EQ(forged.path, proto::DecisionPath::kUnverifiableDeny);
  EXPECT_GE(drop_count("spoofed_source"), spoofed_before + 2);
  ::close(attacker_fd);

  const proto::AccessDecision genuine =
      rig.check_answering_from(rig.manager_fd, UserId(8));
  EXPECT_TRUE(genuine.allowed);
}

// ---------------------------------------------------------------- Topology

TEST(Topology, ParsesEntriesAndComments) {
  std::istringstream in(
      "# deployment of three\n"
      "0 127.0.0.1:9000\n"
      "\n"
      "100 node-a.example:9001   # app host\n"
      "9000 127.0.0.1:9002\n");
  std::string error;
  const auto topo = Topology::parse(in, &error);
  ASSERT_TRUE(topo.has_value()) << error;
  EXPECT_EQ(topo->size(), 3u);
  ASSERT_NE(topo->find(HostId(100)), nullptr);
  EXPECT_EQ(topo->find(HostId(100))->host, "node-a.example");
  EXPECT_EQ(topo->find(HostId(100))->port, 9001);
  EXPECT_EQ(topo->find(HostId(5)), nullptr);
}

TEST(Topology, SerializeRoundTrips) {
  Topology topo;
  topo.add(HostId(3), NodeAddress{"127.0.0.1", 1234});
  topo.add(HostId(1), NodeAddress{"example.org", 80});
  std::istringstream in(topo.serialize());
  std::string error;
  const auto again = Topology::parse(in, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->entries(), topo.entries());
}

TEST(Topology, RejectsMalformedLines) {
  const char* bad_inputs[] = {
      "not-a-number 127.0.0.1:1\n",  // unparseable id
      "1 127.0.0.1\n",               // missing port
      "1 127.0.0.1:99999\n",         // port out of range
      "1 :5\n",                      // empty host
      "1 127.0.0.1:5 trailing\n",    // trailing non-comment text
      "1 127.0.0.1:5\n1 127.0.0.1:6\n",  // duplicate id
  };
  for (const char* text : bad_inputs) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(Topology::parse(in, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Topology, ParseNodeAddress) {
  const auto ok = parse_node_address("10.1.2.3:8080");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->host, "10.1.2.3");
  EXPECT_EQ(ok->port, 8080);
  EXPECT_FALSE(parse_node_address("nocolon").has_value());
  EXPECT_FALSE(parse_node_address(":80").has_value());
  EXPECT_FALSE(parse_node_address("h:").has_value());
  EXPECT_FALSE(parse_node_address("h:65536").has_value());
  EXPECT_FALSE(parse_node_address("h:12x").has_value());
}

}  // namespace
}  // namespace wan::runtime
