// Saturation throughput of the real-socket fabric.
//
// Unlike the simulation benches (which reproduce the paper's tables), this
// bench measures the implementation itself: how many authenticated access
// checks per second one process sustains when every check crosses the kernel
// as real UDP datagrams. A driver endpoint floods 4 app hosts with signed
// InvokeRequests (open loop, bounded in-flight window so the transport's
// bounded queue never sheds) and counts InvokeReply arrivals; each reply is
// one completed authenticate + access-check + respond cycle. Phase two
// keeps a live check load running while hammering manager 0 with pipelined
// grant/revoke storms — the revocation path (update quorum + RevokeNotify
// invalidations) under fire.
//
// Backend is selectable: `--backend reactor` (default; the socket transport
// with epoll + recvmmsg/sendmmsg batching) or `--backend loopback` (no
// sockets — the ceiling imposed by everything above the fabric). The
// checked-in BENCH_throughput.json baseline is produced by the reactor
// backend; CI replays a short run and diffs the schema against it
// (.github/workflows/ci.yml, bench-smoke job).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "auth/authenticator.hpp"
#include "bench/bench_main.hpp"
#include "obs/metrics.hpp"
#include "proto/host.hpp"
#include "proto/wire.hpp"
#include "runtime/backend.hpp"
#include "runtime/env_options.hpp"
#include "runtime/socket_base.hpp"
#include "runtime/threaded_env.hpp"
#include "shard/shard_map.hpp"
#include "workload/scenario.hpp"

namespace wan::bench {
namespace {

using Clock = std::chrono::steady_clock;
using runtime::BackendKind;

constexpr AppId kApp{1};
constexpr std::uint32_t kDriverId = 999;
constexpr int kManagers = 3;
constexpr int kHosts = 4;

// --shards phase: the sharded rigs run 4 managers either as ONE group (every
// uncached check quorum fans out to all four) or as four singleton groups
// (the owner group is one manager). The flood flies distinct NON-granted
// users — only grants are cached (access_controller.cpp), so every check is
// a full authenticate + quorum round trip, which is the manager-tier load
// sharding exists to divide.
constexpr int kShardManagers = 4;
constexpr int kFloodUsersPerHost = 64;
constexpr std::uint32_t kFloodUserBase = 1000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The whole deployment in one process: 3 managers, 4 app hosts, and the
/// driver endpoint, each on its own loop, sharing one fabric. Socket
/// backends self-wire every node id to the transport's bound port, so every
/// frame makes a real kernel round trip.
struct Rig {
  std::unique_ptr<runtime::Fabric> fabric;
  runtime::SocketTransport* socket = nullptr;
  ns::NameService names;
  auth::KeyRegistry keys;
  auth::KeyPair kp;
  std::vector<std::unique_ptr<runtime::ThreadedEnv>> envs;
  std::vector<std::unique_ptr<proto::ManagerHost>> managers;
  std::vector<std::unique_ptr<proto::AppHost>> hosts;
  std::vector<HostId> manager_ids;
  std::vector<HostId> host_ids;

  // Reply stream, fed by the driver endpoint's handler.
  std::atomic<std::uint64_t> replies{0};
  std::atomic<std::uint64_t> accepted{0};

  /// shard_groups == 0: the legacy 3-manager flat rig (C = 2).
  /// shard_groups >= 1: 4 managers, C = 1; 1 = one group owning everything,
  /// 4 = singleton groups behind a consistent-hash map, flood users keyed in.
  explicit Rig(BackendKind kind, int shard_groups = 0) {
    proto::register_wire_messages();
    const int nm = shard_groups > 0 ? kShardManagers : kManagers;
    for (int i = 0; i < nm; ++i) manager_ids.push_back(HostId(static_cast<std::uint32_t>(i)));
    for (int i = 0; i < kHosts; ++i) host_ids.push_back(HostId(static_cast<std::uint32_t>(100 + i)));

    runtime::EnvOptions opts;
    opts.backend = kind;
    opts.listen = "127.0.0.1:0";
    std::string error;
    fabric = runtime::make_fabric(opts, &error);
    if (fabric == nullptr) {
      std::fprintf(stderr, "fabric construction failed: %s\n", error.c_str());
      std::exit(2);
    }
    socket = runtime::fabric_as_socket(fabric.get());
    if (socket != nullptr) {
      const runtime::NodeAddress self{"127.0.0.1", socket->local_port()};
      for (const HostId id : manager_ids) socket->add_peer(id, self);
      for (const HostId id : host_ids) socket->add_peer(id, self);
      socket->add_peer(HostId(kDriverId), self);
    }

    proto::ProtocolConfig config;
    config.check_quorum = shard_groups > 0 ? 1 : 2;
    config.Te = sim::Duration::minutes(2);

    for (int i = 0; i < nm + kHosts + 1; ++i) {
      envs.push_back(std::make_unique<runtime::ThreadedEnv>(*fabric));
    }
    for (int i = 0; i < nm; ++i) {
      managers.push_back(std::make_unique<proto::ManagerHost>(
          manager_ids[static_cast<std::size_t>(i)],
          *envs[static_cast<std::size_t>(i)], clk::LocalClock::perfect(),
          config));
    }
    names.set_managers(kApp, manager_ids);
    shard::ShardMap map;
    if (shard_groups > 1) {
      std::vector<std::vector<HostId>> groups;
      for (const HostId id : manager_ids) groups.push_back({id});
      map = shard::ShardMap::ring(std::move(groups),
                                  static_cast<std::uint32_t>(4 * shard_groups),
                                  /*epoch=*/1);
      names.set_shard_map(kApp, map);
    }
    for (int i = 0; i < nm; ++i) {
      // A sharded manager's Managers(A) is its own group (singleton here).
      const std::vector<HostId> quorum_set =
          shard_groups > 1 ? std::vector<HostId>{manager_ids[static_cast<std::size_t>(i)]}
                           : manager_ids;
      envs[static_cast<std::size_t>(i)]->run_sync([this, i, &quorum_set, &map] {
        managers[static_cast<std::size_t>(i)]->manager().manage_app(
            kApp, quorum_set);
        if (!map.empty()) {
          managers[static_cast<std::size_t>(i)]->manager().set_shard_map(kApp,
                                                                         map);
        }
      });
    }

    // One user per host, all sharing one keypair: requests for host h carry
    // user 7+h, so per-user nonce floors stay strictly increasing per host.
    Rng rng{12345};
    kp = auth::generate_keypair(rng);
    for (int h = 0; h < kHosts; ++h) keys.register_user(user_of(h), kp.public_key);
    if (shard_groups > 0) {
      // Flood users authenticate but hold no grant, so their checks never
      // cache — each one is a live quorum round at the owning group.
      for (int u = 0; u < kHosts * kFloodUsersPerHost; ++u) {
        keys.register_user(UserId(kFloodUserBase + static_cast<std::uint32_t>(u)),
                           kp.public_key);
      }
    }

    for (int i = 0; i < kHosts; ++i) {
      auto& env = *envs[static_cast<std::size_t>(nm + i)];
      hosts.push_back(std::make_unique<proto::AppHost>(
          host_ids[static_cast<std::size_t>(i)], env,
          clk::LocalClock::perfect(), names, keys, config));
      env.run_sync([this, i] {
        hosts[static_cast<std::size_t>(i)]->controller().register_app(
            kApp, [](UserId, const std::string& p) { return p; });
      });
    }

    auto& driver_env = *envs.back();
    driver_env.transport().register_endpoint(
        HostId(kDriverId), [this](HostId, const net::MessagePtr& msg) {
          if (const auto* reply = net::message_cast<proto::InvokeReply>(msg)) {
            if (reply->accepted) accepted.fetch_add(1, std::memory_order_relaxed);
            replies.fetch_add(1, std::memory_order_relaxed);
          }
        });
  }

  ~Rig() {
    if (socket != nullptr) {
      socket->shutdown();
    } else if (fabric != nullptr) {
      fabric->stop_all();
    }
  }

  static UserId user_of(int host_idx) {
    return UserId(static_cast<std::uint32_t>(7 + host_idx));
  }

  /// Submits one update at manager 0 and waits for its quorum outcome.
  bool barrier_update(acl::Op op, UserId user) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    envs[0]->run_sync([this, op, user, done] {
      managers[0]->manager().submit_update(
          kApp, op, user, acl::Right::kUse,
          [done](const proto::UpdateOutcome&) { done->store(true); });
    });
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (!done->load()) {
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

/// Open-loop check driver with a bounded in-flight window. The window (plus
/// the replies it implies) stays under the transport's 1024-frame queue
/// limit, so saturation shows up as throughput, not queue_full shedding.
struct CheckDriver {
  /// flood = cycle kFloodUsersPerHost distinct non-granted users per host
  /// (every check misses the cache) instead of the four granted hot users.
  explicit CheckDriver(Rig& rig, bool flood = false)
      : rig_(rig), flood_(flood) {
    nonces_.assign(flood ? static_cast<std::size_t>(kHosts) * kFloodUsersPerHost
                         : kHosts,
                   1);
    cursors_.assign(kHosts, 0);
  }

  /// Sends signed InvokeRequests round-robin for `seconds`, then drains.
  /// Returns replies observed between start and drain end.
  struct Result {
    std::uint64_t sent = 0;
    std::uint64_t replies = 0;
    std::uint64_t accepted = 0;
    double elapsed = 0.0;
  };
  Result run(double seconds, std::uint64_t window,
             const std::atomic<bool>* abort = nullptr) {
    const std::uint64_t replies0 = rig_.replies.load();
    const std::uint64_t accepted0 = rig_.accepted.load();
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
    std::uint64_t sent = 0;
    int h = 0;
    while (Clock::now() < deadline && (abort == nullptr || !abort->load())) {
      if (sent - (rig_.replies.load() - replies0) >= window) {
        std::this_thread::yield();
        continue;
      }
      send_one(h);
      ++sent;
      h = (h + 1) % kHosts;
    }
    // Drain: every request in flight either answers or times out of scope.
    const auto drain_deadline = Clock::now() + std::chrono::seconds(5);
    while (rig_.replies.load() - replies0 < sent &&
           Clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Result r;
    r.sent = sent;
    r.replies = rig_.replies.load() - replies0;
    r.accepted = rig_.accepted.load() - accepted0;
    r.elapsed = seconds_since(t0);
    return r;
  }

 private:
  void send_one(int h) {
    std::size_t slot = static_cast<std::size_t>(h);
    UserId user = Rig::user_of(h);
    if (flood_) {
      const int k = cursors_[static_cast<std::size_t>(h)]++ % kFloodUsersPerHost;
      slot = static_cast<std::size_t>(h) * kFloodUsersPerHost +
             static_cast<std::size_t>(k);
      user = UserId(kFloodUserBase + static_cast<std::uint32_t>(slot));
    }
    const std::uint64_t nonce = nonces_[slot]++;
    const auth::Signature sig = auth::sign(
        user, auth::Authenticator::signed_bytes("x", nonce), rig_.kp.secret);
    rig_.fabric->send(
        HostId(kDriverId), rig_.host_ids[static_cast<std::size_t>(h)],
        net::make_message<proto::InvokeRequest>(kApp, user, ++request_id_,
                                                nonce, sig, "x", 0));
  }

  Rig& rig_;
  bool flood_;
  std::vector<std::uint64_t> nonces_;
  std::vector<int> cursors_;
  std::uint64_t request_id_ = 0;
};

/// Pipelined grant/revoke chains at manager 0: each completion immediately
/// submits the next update for the same user, `chains` chains deep.
struct UpdateStorm {
  std::atomic<bool> stop{false};
  std::atomic<int> outstanding{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> revokes{0};
};

std::shared_ptr<UpdateStorm> start_update_storm(Rig& rig, int chains) {
  auto storm = std::make_shared<UpdateStorm>();
  auto fire = std::make_shared<std::function<void(int, bool)>>();
  *fire = [&rig, storm, fire](int user_idx, bool grant) {
    if (storm->stop.load()) {
      storm->outstanding.fetch_sub(1);
      return;
    }
    if (!grant) storm->revokes.fetch_add(1);
    rig.managers[0]->manager().submit_update(
        kApp, grant ? acl::Op::kAdd : acl::Op::kRevoke, Rig::user_of(user_idx),
        acl::Right::kUse,
        [storm, fire, user_idx, grant](const proto::UpdateOutcome&) {
          storm->completed.fetch_add(1);
          (*fire)(user_idx, !grant);
        });
  };
  storm->outstanding.store(chains);
  rig.envs[0]->run_sync([&, chains] {
    for (int c = 0; c < chains; ++c) (*fire)(c % kHosts, (c & 1) != 0);
  });
  return storm;
}

void stop_update_storm(Rig& rig, const std::shared_ptr<UpdateStorm>& storm,
                       std::shared_ptr<std::function<void(int, bool)>>* fire) {
  storm->stop.store(true);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (storm->outstanding.load() > 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (void)rig;
  if (fire != nullptr && *fire != nullptr) **fire = nullptr;  // break cycle
}

// Phase 4 helper: total dissemination frames a 3-manager deployment spends
// revoking `users` rights cached on every one of `hosts` app hosts, under
// one fanout strategy. Runs on the deterministic simulation (the strategies
// sit above the fabric seam, so frame counts are backend-independent) and
// reads the process-global wan_revoke_fanout_frames_total counter as a
// delta around the revocation burst.
std::uint64_t fanout_frames(runtime::DisseminationKind dk, int hosts,
                            int users) {
  workload::ScenarioConfig cfg;
  cfg.managers = kManagers;
  cfg.app_hosts = hosts;
  cfg.users = users;
  cfg.constant_latency = true;
  cfg.const_latency = sim::Duration::millis(10);
  cfg.protocol.check_quorum = 2;
  cfg.protocol.Te = sim::Duration::seconds(30);
  cfg.protocol.dissemination.kind = dk;
  cfg.seed = 7;
  workload::Scenario s(cfg);
  for (int u = 0; u < users; ++u) s.grant(s.user(u), 0);
  s.run_for(sim::Duration::seconds(2));
  for (int h = 0; h < hosts; ++h) {
    for (int u = 0; u < users; ++u) s.check(h, s.user(u));
  }
  s.run_for(sim::Duration::seconds(5));
  obs::Counter& frames =
      obs::Registry::global().counter("wan_revoke_fanout_frames_total");
  const std::uint64_t before = frames.value();
  for (int u = 0; u < users; ++u) s.revoke(s.user(u), 0);
  s.run_for(sim::Duration::seconds(10));
  return frames.value() - before;
}

int throughput_main(int argc, char** argv, BackendKind kind, bool shards) {
  const BenchInfo info{
      "throughput",
      "SATURATION THROUGHPUT — batched socket I/O under check + revocation "
      "storms",
      "implementation artifact: authenticated checks/sec over the reactor "
      "(epoll + recvmmsg/sendmmsg) fabric; no paper table",
      "check_storm.checks_per_sec is completed authenticate+check+reply "
      "cycles per second over real localhost UDP (every check = 2 datagrams "
      "through one socket). revocation_storm runs pipelined grant/revoke "
      "quorums at manager 0 under live check load. backend_kind: 1=loopback, "
      "3=reactor (select with --backend). The reactor run is the "
      "checked-in BENCH_throughput.json baseline; regressions >20% fail the "
      "CI bench-smoke diff."};
  return bench_main(argc, argv, info, [kind, shards](JsonEmitter& json) {
    const double storm_secs = fast_mode() ? 0.8 : 3.0;
    const std::uint64_t window = 256;
    const double backend_field = kind == BackendKind::kLoopback ? 1.0 : 3.0;
    Rig rig(kind);

    // Warm-up: grant every user, then one check per host to populate caches
    // (and the per-user nonce floors) so the storm measures the steady state.
    for (int h = 0; h < kHosts; ++h) {
      if (!rig.barrier_update(acl::Op::kAdd, Rig::user_of(h))) {
        std::fprintf(stderr, "warm-up grant %d never reached quorum\n", h);
        std::exit(2);
      }
    }
    CheckDriver driver(rig);
    const auto warm = driver.run(0.2, 16);
    if (warm.accepted == 0) {
      std::fprintf(stderr, "warm-up checks never succeeded\n");
      std::exit(2);
    }

    // Phase 1: open-loop check storm, caches hot. The host-side decision
    // latency histogram (AccessController::emit observes requested->decided
    // per decision) is reset here so its percentiles cover exactly this
    // storm, not the warm-up.
    obs::Histo& check_latency =
        obs::Registry::global().histogram("wan_check_latency_seconds");
    check_latency.reset();
    const auto storm = driver.run(storm_secs, window);
    const metrics::Histogram latency_snap = check_latency.snapshot();
    const double checks_per_sec =
        static_cast<double>(storm.replies) / storm.elapsed;
    std::printf("\n  check storm   (%4.1fs, window %3llu): %9.0f checks/sec"
                "  (%llu replies, %llu accepted, %llu sent)\n",
                storm.elapsed, static_cast<unsigned long long>(window),
                checks_per_sec,
                static_cast<unsigned long long>(storm.replies),
                static_cast<unsigned long long>(storm.accepted),
                static_cast<unsigned long long>(storm.sent));
    json.record("check_storm", {{"backend_kind", backend_field},
                                {"checks_per_sec", checks_per_sec},
                                {"replies", static_cast<double>(storm.replies)},
                                {"accepted", static_cast<double>(storm.accepted)},
                                {"seconds", storm.elapsed},
                                {"window", static_cast<double>(window)}});

    // Host-side per-decision latency during phase 1, from the
    // wan_check_latency_seconds histogram (cache-hot, so this is the signed
    // request -> local decide path, not a quorum round). Field names avoid
    // `checks_per_sec` so the CI regression gate keys only on the rate row.
    const double lat_p50 = latency_snap.quantile_seconds(0.50);
    const double lat_p99 = latency_snap.quantile_seconds(0.99);
    std::printf("  check latency (%llu samples):      p50 %8.1fus  "
                "p99 %8.1fus  max %8.1fus\n",
                static_cast<unsigned long long>(latency_snap.count()),
                lat_p50 * 1e6, lat_p99 * 1e6,
                latency_snap.max_seconds() * 1e6);
    json.record("check_latency",
                {{"p50_s", lat_p50},
                 {"p99_s", lat_p99},
                 {"max_s", latency_snap.max_seconds()},
                 {"samples", static_cast<double>(latency_snap.count())},
                 {"seconds", storm.elapsed}});

    // Phase 2: revocation storm — pipelined grant/revoke quorums at manager
    // 0 while a lighter check load keeps caches live (so RevokeNotify
    // invalidations actually have entries to kill).
    auto update_storm = start_update_storm(rig, /*chains=*/16);
    const auto bg = driver.run(storm_secs, 64);
    stop_update_storm(rig, update_storm, nullptr);
    const double updates_per_sec =
        static_cast<double>(update_storm->completed.load()) / bg.elapsed;
    const double bg_checks_per_sec =
        static_cast<double>(bg.replies) / bg.elapsed;
    std::printf("  revoke storm  (%4.1fs, 16 chains):  %9.0f updates/sec"
                "  (%llu quorums, %llu revokes, %0.0f checks/sec alongside)\n",
                bg.elapsed, updates_per_sec,
                static_cast<unsigned long long>(update_storm->completed.load()),
                static_cast<unsigned long long>(update_storm->revokes.load()),
                bg_checks_per_sec);
    json.record("revocation_storm",
                {{"backend_kind", backend_field},
                 {"updates_per_sec", updates_per_sec},
                 {"updates", static_cast<double>(update_storm->completed.load())},
                 {"revokes", static_cast<double>(update_storm->revokes.load())},
                 {"checks_per_sec", bg_checks_per_sec},
                 {"seconds", bg.elapsed}});

    // Phase 3 (--shards): aggregate UNCACHED checks/sec with the same four
    // managers deployed as one group vs four singleton shard groups. With
    // one group every check quorum fans out to all four managers (fanout
    // kAll); with singleton groups the shard map routes each check to the
    // one owning manager, so the manager tier does a quarter of the datagram
    // work per check. Field names deliberately avoid bare `checks_per_sec`
    // so the CI regression gate keeps keying on the flat-path rows only.
    if (shards) {
      const double shard_secs = fast_mode() ? 0.6 : 2.0;
      double rate[2] = {0.0, 0.0};
      double last_elapsed = 0.0;
      for (int cfg = 0; cfg < 2; ++cfg) {
        const int groups = cfg == 0 ? 1 : 4;
        Rig srig(kind, groups);
        CheckDriver sdriver(srig, /*flood=*/true);
        const auto warm = sdriver.run(0.2, 16);
        if (warm.replies == 0) {
          std::fprintf(stderr, "shard warm-up checks never answered\n");
          std::exit(2);
        }
        // Window 64, not 256: an uncached check is up to 10 datagrams
        // through the shared socket (invoke + 4 queries + 4 responses +
        // reply), so the wide window would overrun the transport's
        // 1024-frame queue and shed.
        const auto res = sdriver.run(shard_secs, 64);
        rate[cfg] = static_cast<double>(res.replies) / res.elapsed;
        last_elapsed = res.elapsed;
      }
      const double scaling = rate[0] > 0.0 ? rate[1] / rate[0] : 0.0;
      std::printf("  shard scaling (%4.1fs uncached):   %9.0f -> %.0f "
                  "checks/sec  (4 shards / 1 = %.2fx)\n",
                  last_elapsed, rate[0], rate[1], scaling);
      json.record("shard_scaling", {{"checks_per_sec_s1", rate[0]},
                                    {"checks_per_sec_s4", rate[1]},
                                    {"scaling_x", scaling},
                                    {"seconds", last_elapsed}});
      if (!fast_mode() && scaling < 1.5) {
        std::fprintf(stderr,
                     "shard scaling %.2fx is below the 1.5x floor — sharding "
                     "is not dividing the manager-tier load\n",
                     scaling);
        std::exit(2);
      }
    }

    // Phase 4: dissemination frame economics — frames the deployment spends
    // per mass revocation (4 users cached on 32 hosts) under each fanout
    // strategy. Deterministic sim, so these are exact counts, not rates;
    // field names avoid `checks_per_sec` so the CI regression gate ignores
    // this row beyond schema drift.
    {
      constexpr int kFanHosts = 32;
      constexpr int kFanUsers = 4;
      const std::uint64_t uni = fanout_frames(
          runtime::DisseminationKind::kUnicast, kFanHosts, kFanUsers);
      const std::uint64_t coal = fanout_frames(
          runtime::DisseminationKind::kCoalesced, kFanHosts, kFanUsers);
      const std::uint64_t tree = fanout_frames(
          runtime::DisseminationKind::kTree, kFanHosts, kFanUsers);
      const double per_rev = 1.0 / kFanUsers;
      std::printf("  fanout frames (32 hosts, per rev): %6.1f unicast  "
                  "%6.1f coalesced (%.1fx)  %6.1f tree (%.1fx)\n",
                  static_cast<double>(uni) * per_rev,
                  static_cast<double>(coal) * per_rev,
                  coal > 0 ? static_cast<double>(uni) / static_cast<double>(coal)
                           : 0.0,
                  static_cast<double>(tree) * per_rev,
                  tree > 0 ? static_cast<double>(uni) / static_cast<double>(tree)
                           : 0.0);
      json.record(
          "fanout_frames_per_revocation",
          {{"cached_hosts", static_cast<double>(kFanHosts)},
           {"unicast", static_cast<double>(uni) * per_rev},
           {"coalesced", static_cast<double>(coal) * per_rev},
           {"tree", static_cast<double>(tree) * per_rev},
           {"coalesced_savings_x",
            coal > 0 ? static_cast<double>(uni) / static_cast<double>(coal)
                     : 0.0},
           {"tree_savings_x",
            tree > 0 ? static_cast<double>(uni) / static_cast<double>(tree)
                     : 0.0}});
    }
  });
}

}  // namespace
}  // namespace wan::bench

int main(int argc, char** argv) {
  // --backend / --shards are bench-specific; strip them before the shared
  // flag parser.
  std::string backend = "reactor";
  bool shards = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--backend" && i + 1 < argc) {
      backend = argv[++i];
      continue;
    }
    if (std::string(argv[i]) == "--shards") {
      shards = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  wan::runtime::BackendKind kind = wan::runtime::BackendKind::kReactor;
  if (!wan::runtime::parse_backend(backend, &kind) ||
      kind == wan::runtime::BackendKind::kSim) {
    std::fprintf(stderr,
                 "--backend must be loopback or reactor (got '%s')\n",
                 backend.c_str());
    return 2;
  }
  return wan::bench::throughput_main(static_cast<int>(args.size()),
                                     args.data(), kind, shards);
}
