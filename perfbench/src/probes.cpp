#include "probes.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "acl/cache.hpp"
#include "auth/authenticator.hpp"
#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "proto/journal.hpp"
#include "proto/messages.hpp"

namespace perfbench {

using namespace wan;

namespace {

double since_us(SteadyClock::time_point t0, SteadyClock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Median over `reps` repetitions of the per-call cost of `body(n)`, in ns.
template <typename Body>
double per_call_ns(int n, Body&& body, int reps = 5) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = SteadyClock::now();
    body(n);
    const auto t1 = SteadyClock::now();
    samples.push_back(since_us(t0, t1) * 1e3 / n);
  }
  return median(samples);
}

volatile std::uint64_t g_sink = 0;

int bound_loopback_socket(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    std::perror("perfbench: floor socket");
    std::exit(2);
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

void connect_loopback(int fd, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("perfbench: floor connect");
    std::exit(2);
  }
}

/// Blocks on a posted closure's completion (driver side of a probe).
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  void open() {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  }
  bool wait() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10), [this] { return done; });
  }
};

}  // namespace

double udp_floor_rtt_p50_us(std::size_t frame_size, int pings) {
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  const int a = bound_loopback_socket(&port_a);
  const int b = bound_loopback_socket(&port_b);
  connect_loopback(a, port_b);
  connect_loopback(b, port_a);
  std::thread echo([b, pings] {
    // Off the driver's CPU, so each ping crosses CPUs as rig frames do.
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(1 % ::sysconf(_SC_NPROCESSORS_ONLN), &set);
    ::sched_setaffinity(0, sizeof(set), &set);
    std::vector<std::uint8_t> buf(2048);
    for (int i = 0; i < pings; ++i) {
      const ssize_t n = ::recv(b, buf.data(), buf.size(), 0);
      if (n <= 0) return;
      (void)::send(b, buf.data(), static_cast<std::size_t>(n), 0);
    }
  });
  std::vector<std::uint8_t> out(frame_size, 0x5a);
  std::vector<std::uint8_t> in(2048);
  std::vector<double> rtt;
  for (int i = 0; i < pings; ++i) {
    const auto t0 = SteadyClock::now();
    (void)::send(a, out.data(), out.size(), 0);
    if (::recv(a, in.data(), in.size(), 0) <= 0) break;
    rtt.push_back(since_us(t0, SteadyClock::now()));
  }
  ::shutdown(b, SHUT_RDWR);
  echo.join();
  ::close(a);
  ::close(b);
  return median(rtt);
}

double fabric_echo_rtt_p50_us(Rig& rig, const std::vector<std::uint8_t>& frame,
                              int pings) {
  const int fd = rig.client().fd();
  std::vector<std::uint8_t> in(2048);
  std::vector<double> rtt;
  for (int i = 0; i < pings; ++i) {
    const auto t0 = SteadyClock::now();
    (void)::send(fd, frame.data(), frame.size(), 0);
    if (::recv(fd, in.data(), in.size(), 0) <= 0) continue;  // timed out
    rtt.push_back(since_us(t0, SteadyClock::now()));
  }
  return median(rtt);
}

void codec_probes(std::vector<Metric>* out) {
  const UserId user(4242);
  const acl::Version version{17, HostId(1), 123456};
  const std::vector<std::pair<const char*, net::MessagePtr>> samples = {
      {"InvokeRequest", net::make_message<proto::InvokeRequest>(
                            kApp, user, 99, 7, auth::Signature{0xabcdef}, "x")},
      {"InvokeReply", net::make_message<proto::InvokeReply>(
                          99, true, proto::DenyReason::kNone, "x")},
      {"QueryRequest", net::make_message<proto::QueryRequest>(kApp, user, 5)},
      {"QueryResponse", net::make_message<proto::QueryResponse>(
                            kApp, user, 5, acl::RightSet(acl::Right::kUse), version,
                            sim::Duration::seconds(297))},
      {"VersionQuery", net::make_message<proto::VersionQuery>(kApp, 3)},
      {"VersionReply", net::make_message<proto::VersionReply>(kApp, 3, version)},
      {"UpdateMsg",
       net::make_message<proto::UpdateMsg>(
           kApp,
           acl::AclUpdate{user, acl::Right::kUse, acl::Op::kRevoke, version},
           11)},
      {"UpdateAck", net::make_message<proto::UpdateAck>(kApp, 11)},
      {"RevokeNotify", net::make_message<proto::RevokeNotify>(kApp, user, version)},
  };
  const auto& codec = net::CodecRegistry::global();
  constexpr int kCalls = 20'000;
  for (const auto& [tag, msg] : samples) {
    std::vector<std::uint8_t> buf;
    const double enc = per_call_ns(kCalls, [&](int n) {
      for (int i = 0; i < n; ++i) {
        codec.encode_into(HostId(1), HostId(2), *msg, &buf);
        g_sink = g_sink + buf.size();
      }
    });
    const double dec = per_call_ns(kCalls, [&](int n) {
      for (int i = 0; i < n; ++i) {
        const auto decoded = codec.decode(buf.data(), buf.size());
        g_sink = g_sink + (decoded.ok() ? 1 : 0);
      }
    });
    out->push_back({std::string("net.encode_ns.") + tag, enc, "ns"});
    out->push_back({std::string("net.decode_ns.") + tag, dec, "ns"});
  }
}

void module_probes(std::vector<Metric>* out) {
  constexpr int kCalls = 20'000;
  Rng rng(7);
  const auth::KeyPair kp = auth::generate_keypair(rng);
  auth::KeyRegistry registry;
  const UserId user(77);
  registry.register_user(user, kp.public_key);
  std::vector<auth::Signature> sigs;
  for (int i = 0; i < kCalls; ++i) {
    const auto nonce = static_cast<std::uint64_t>(i + 1);
    sigs.push_back(auth::sign(
        user, auth::Authenticator::signed_bytes("x", nonce), kp.secret));
  }
  out->push_back({"auth.authenticate_ns", per_call_ns(kCalls, [&](int n) {
                    auth::Authenticator authenticator(registry);
                    for (int i = 0; i < n; ++i) {
                      const auto r = authenticator.authenticate(
                          user, "x", static_cast<std::uint64_t>(i + 1),
                          sigs[static_cast<std::size_t>(i)]);
                      g_sink = g_sink + static_cast<std::uint64_t>(r);
                    }
                  }),
                  "ns"});

  constexpr int kUsers = 256;
  const clk::LocalTime now = clk::LocalTime::from_nanos(1'000'000);
  const clk::LocalTime limit = now + sim::Duration::minutes(5);
  acl::AclCache cache;
  for (int u = 0; u < kUsers; ++u) {
    cache.insert(UserId(static_cast<std::uint32_t>(u)),
                 acl::RightSet(acl::Right::kUse), limit,
                 acl::Version{1, HostId(0), 0}, now);
  }
  out->push_back({"acl.cache_lookup_hit_ns", per_call_ns(kCalls, [&](int n) {
                    for (int i = 0; i < n; ++i) {
                      const auto e = cache.lookup(
                          UserId(static_cast<std::uint32_t>(i % kUsers)), now);
                      g_sink = g_sink + (e ? 1 : 0);
                    }
                  }),
                  "ns"});
  out->push_back({"acl.cache_insert_ns", per_call_ns(kCalls, [&](int n) {
                    for (int i = 0; i < n; ++i) {
                      cache.insert(UserId(static_cast<std::uint32_t>(i % kUsers)),
                                   acl::RightSet(acl::Right::kUse), limit,
                                   acl::Version{2, HostId(0), i}, now);
                    }
                  }),
                  "ns"});
  std::uint64_t counter = 0;
  acl::AclStore store;
  out->push_back({"acl.store_apply_ns", per_call_ns(kCalls, [&](int n) {
                    for (int i = 0; i < n; ++i) {
                      ++counter;
                      const bool changed = store.apply(acl::AclUpdate{
                          UserId(static_cast<std::uint32_t>(i % kUsers)),
                          acl::Right::kUse,
                          (counter & 1) != 0 ? acl::Op::kAdd : acl::Op::kRevoke,
                          acl::Version{counter, HostId(0), 0}});
                      g_sink = g_sink + (changed ? 1 : 0);
                    }
                  }),
                  "ns"});

  obs::Histo histo;
  out->push_back({"obs.histo_observe_ns", per_call_ns(kCalls, [&](int n) {
                    for (int i = 0; i < n; ++i) {
                      histo.observe(sim::Duration::nanos(1000 + (i & 1023)));
                    }
                  }),
                  "ns"});
  obs::Counter c;
  out->push_back({"obs.counter_inc_ns", per_call_ns(kCalls, [&](int n) {
                    for (int i = 0; i < n; ++i) c.inc();
                  }),
                  "ns"});
  g_sink = g_sink + c.value();
}

void proto_probes(Rig& rig, const Population& pop, const std::string& scratch_dir,
                  std::vector<Metric>* out) {
  // Cache-hit path: check_access on users the warm-up cached, timed on the
  // host loop around the call (the callback runs inside it).
  {
    std::vector<double> us;
    rig.host_env().run_sync([&] {
      for (int i = 0; i < 2000; ++i) {
        const UserId user = pop.probe_granted[static_cast<std::size_t>(i) %
                                              pop.probe_granted.size()];
        bool hit = false;
        const auto t0 = SteadyClock::now();
        rig.controller(i % kHosts).check_access(
            kApp, user, [&hit](const proto::AccessDecision& d) {
              hit = d.path == proto::DecisionPath::kCacheHit;
            });
        if (hit) us.push_back(since_us(t0, SteadyClock::now()));
      }
    });
    out->push_back({"proto.check_access_hit_us", median(us), "us"});
  }

  // Quorum path: the same call on never-granted users, one at a time; the
  // managers' response observers count the answers each check drew.
  {
    std::uint64_t answers = 0;
    rig.manager_env().run_sync([&] {
      for (int m = 0; m < kManagers; ++m) {
        rig.manager(m).set_response_observer(
            [&answers](const proto::ManagerModule::QueryAnswerEvent&) {
              ++answers;
            });
      }
    });
    std::vector<double> us;
    const int checks = static_cast<int>(pop.probe_cold.size());
    for (int i = 0; i < checks; ++i) {
      auto latch = std::make_shared<Latch>();
      auto elapsed = std::make_shared<double>(0.0);
      const UserId user = pop.probe_cold[static_cast<std::size_t>(i)];
      rig.host_env().post([&rig, i, user, latch, elapsed] {
        const auto t0 = SteadyClock::now();
        rig.controller(i % kHosts).check_access(
            kApp, user, [t0, latch, elapsed](const proto::AccessDecision&) {
              *elapsed = since_us(t0, SteadyClock::now());
              latch->open();
            });
      });
      if (latch->wait()) us.push_back(*elapsed);
    }
    // Late third answers of the last check land before this barrier returns.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rig.manager_env().run_sync([&] {
      for (int m = 0; m < kManagers; ++m) {
        rig.manager(m).set_response_observer(nullptr);
      }
    });
    out->push_back({"proto.check_quorum_p50_us", percentile(us, 0.50), "us"});
    out->push_back({"proto.check_quorum_p99_us", percentile(us, 0.99), "us"});
    const double per_check =
        us.empty() ? 0.0
                   : static_cast<double>(answers) / static_cast<double>(us.size());
    out->push_back({"proto.queries_per_uncached_check", per_check, "count"});
    out->push_back({"proto.query_replies_used_ratio",
                    per_check > 0 ? kCheckQuorum / per_check : 0.0, "ratio"});
  }

  // Update path: revoke then re-grant each probe user, one update at a
  // time. Before each revoke cycle every host re-caches the users, so each
  // revocation has hosts to notify.
  {
    auto& registry = obs::Registry::global();
    auto& frames = registry.counter("wan_udp_frames_sent_total");
    auto& fanout = registry.counter("wan_revoke_fanout_frames_total");
    std::vector<double> us;
    std::uint64_t frame_count = 0;
    std::uint64_t fanout_count = 0;
    std::uint64_t revokes = 0;
    double cpu_us = 0.0;
    auto one_update = [&](int k, acl::Op op, UserId user) {
      auto latch = std::make_shared<Latch>();
      auto elapsed = std::make_shared<double>(0.0);
      rig.manager_env().post([&rig, k, op, user, latch, elapsed] {
        const auto t0 = SteadyClock::now();
        rig.manager(k % kManagers)
            .submit_update(kApp, op, user, acl::Right::kUse,
                           [t0, latch, elapsed](const proto::UpdateOutcome&) {
                             *elapsed = since_us(t0, SteadyClock::now());
                             latch->open();
                           });
      });
      if (latch->wait()) us.push_back(*elapsed);
    };
    for (int cycle = 0; cycle < 3; ++cycle) {
      auto cached = std::make_shared<std::atomic<int>>(0);
      const int want = static_cast<int>(pop.probe_granted.size()) * kHosts;
      rig.host_env().run_sync([&rig, &pop, cached] {
        for (int h = 0; h < kHosts; ++h) {
          for (const UserId user : pop.probe_granted) {
            rig.controller(h).check_access(
                kApp, user,
                [cached](const proto::AccessDecision&) { cached->fetch_add(1); });
          }
        }
      });
      const auto deadline = SteadyClock::now() + std::chrono::seconds(10);
      while (cached->load() < want && SteadyClock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      for (const acl::Op op : {acl::Op::kRevoke, acl::Op::kAdd}) {
        const std::uint64_t f0 = frames.value();
        const std::uint64_t n0 = fanout.value();
        const double c0 = process_cpu_us();
        int k = cycle;
        for (const UserId user : pop.probe_granted) one_update(k++, op, user);
        // Let notifications and their acks finish before reading counters.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cpu_us += process_cpu_us() - c0;
        frame_count += frames.value() - f0;
        fanout_count += fanout.value() - n0;
        if (op == acl::Op::kRevoke) revokes += pop.probe_granted.size();
      }
    }
    const double updates = static_cast<double>(us.size());
    out->push_back({"proto.update_quorum_p50_us", percentile(us, 0.50), "us"});
    out->push_back({"proto.update_quorum_p99_us", percentile(us, 0.99), "us"});
    out->push_back({"proto.frames_per_update",
                    updates > 0 ? static_cast<double>(frame_count) / updates : 0.0,
                    "count"});
    out->push_back({"proto.revoke_frames_per_revoke",
                    revokes > 0 ? static_cast<double>(fanout_count) /
                                      static_cast<double>(revokes)
                                : 0.0,
                    "count"});
    out->push_back({"process.cpu_us_per_update",
                    updates > 0 ? cpu_us / updates : 0.0, "us"});
  }

  // Journal append: one fwrite + fflush per record, on a journal of its own.
  {
    const std::string dir = scratch_dir + "/journal-probe";
    std::string error;
    auto journal = proto::ManagerJournal::open(dir, &error);
    std::vector<double> us;
    if (journal != nullptr) {
      for (int i = 0; i < 2000; ++i) {
        const acl::AclUpdate update{UserId(static_cast<std::uint32_t>(i % 64)),
                                    acl::Right::kUse,
                                    (i & 1) != 0 ? acl::Op::kAdd : acl::Op::kRevoke,
                                    acl::Version{static_cast<std::uint64_t>(i + 1),
                                                 HostId(0), i}};
        const auto t0 = SteadyClock::now();
        const bool ok = journal->append(kApp, update);
        if (ok) us.push_back(since_us(t0, SteadyClock::now()));
      }
    } else {
      std::fprintf(stderr, "perfbench: journal probe: %s\n", error.c_str());
    }
    journal.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    out->push_back({"proto.journal_append_us", median(us), "us"});
  }
}

std::vector<int> thread_ids() {
  std::vector<int> tids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') tids.push_back(std::atoi(entry->d_name));
    }
    ::closedir(dir);
  }
  return tids;
}

std::int64_t thread_cpu_ns(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::int64_t ns = 0;
  in >> ns;
  return ns;
}

double process_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace perfbench
