// wan_node: runs the protocol on the threaded runtime, in real time.
//
// The simulator proves the protocol's logic; this tool proves the runtime
// seam — the same proto/ modules, byte for byte, driven by OS threads and a
// steady clock. Three modes:
//
//   wan_node --realtime [--te-ms N] [--delay-us N] [--verbose]
//            [--metrics [FILE]]
//       All 8 nodes in one process over the in-process loopback fabric
//       (the PR 3 smoke, unchanged).
//
//   wan_node --role manager|host|agent --id N --topology FILE
//            [--listen ADDR] [--te-ms N] [--verbose]
//       ONE node of a multi-process deployment over real UDP sockets. Every
//       process loads the same topology file (HostId -> host:port); frames
//       travel through the versioned wire codec (docs/WIRE_FORMAT.md). Each
//       role follows a fixed timer script (below) so that 8 independent
//       processes re-enact the revocation worst case with no coordination
//       channel beyond the sockets themselves.
//
//   wan_node --udp-smoke [--te-ms N] [--reliable] [--loss P] [--verbose]
//       Orchestrator: spawns the 8 node processes (3 managers, 4 hosts,
//       1 agent) from this same binary, each binding port 0; scrapes the
//       kernel-assigned ports from their output, then writes the topology
//       file the children are waiting on (two-phase startup — no
//       bind-then-close port race). Collects their stdout and asserts the
//       Te bound across process boundaries. This is what CI runs.
//       Every child must also report zero spoofed_source drops.
//       --reliable arms the ack/retransmit layer in every child; --loss P
//       additionally makes each child drop fraction P of inbound frames
//       (seeded, deterministic per child), which only converges because
//       retransmission recovers it.
//
//   wan_node --proc-chaos [--chaos-seed N] [--te-ms N]
//       Process-level chaos orchestrator: the same 8-process deployment
//       (reliability layer on, managers journaling to per-process state
//       dirs), plus a seeded kill/restart schedule — one non-revoking
//       manager and one non-cut host are SIGKILLed mid-traffic and
//       re-exec'd on their original ports a few hundred ms later. The
//       restarted manager must replay its journal (JOURNAL_REPLAYED),
//       re-sync from peers (RESYNCED), and the Te bound must hold across
//       the crashes exactly as in the smoke. See docs/CHAOS.md.
//
// The multi-process script (offsets from each process's start; spawn skew is
// tens of ms, the gaps are hundreds):
//
//   +500 ms   manager 0 grants the user             (prints GRANT_OK_US)
//   +1200 ms  agent starts invoking via the cut host, repeatedly
//   +3000 ms  the cut host drops its cached entry, and blocks inbound from
//             all managers as soon as the agent's next invoke re-grants it
//             — revocations and query replies can no longer reach it, but
//             its cache was refreshed moments ago (the paper's worst case:
//             a partition landing right after a grant confirmation)
//   +3200 ms  manager 1 revokes                     (prints REVOKE_QUORUM_US)
//   ...       agent keeps invoking; allows come only from the cut host's
//             cache, which must expire within te. First deny after the
//             revoke instant ends the poll            (prints LAST_ALLOW_US)
//
// Timestamps are system-clock microseconds — comparable across processes on
// one machine — so the orchestrator checks LAST_ALLOW_US - REVOKE_QUORUM_US
// <= Te without any cross-process clock protocol. A last allow that is not
// after the quorum fails the run as VACUOUS: the cached-allow window Te
// bounds was never exercised, so "held" would prove nothing.
//
// --metrics exports the process-wide metrics registry in Prometheus text
// format: with FILE, a background thread rewrites the file twice a second
// while the smoke runs (tail -f it, or point a node_exporter textfile
// collector at it) and once more on exit; without FILE, the registry is
// printed to stdout on exit.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "proto/host.hpp"
#include "proto/journal.hpp"
#include "proto/user_agent.hpp"
#include "proto/wire.hpp"
#include "shard/shard_map.hpp"
#include "util/rng.hpp"
#include "runtime/env_options.hpp"
#include "runtime/socket_base.hpp"
#include "runtime/threaded_env.hpp"

namespace wan {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  bool realtime = false;
  bool udp_smoke = false;
  bool proc_chaos = false;
  std::string role;      ///< manager|host|agent (multi-process mode)
  std::uint32_t id = 0;  ///< HostId in the topology (multi-process mode)
  bool id_set = false;
  std::string listen;    ///< bind override (default: the topology entry)
  std::string topology;  ///< topology file path
  int te_ms = 2000;      ///< revocation bound Te (small: this runs wall-clock)
  int delay_us = 1000;   ///< loopback fabric one-way delay (--realtime only)
  bool verbose = false;
  bool metrics = false;      ///< export the metrics registry
  std::string metrics_path;  ///< with --metrics: live file (empty = stdout)
  std::string state_dir;     ///< manager role: durable journal directory
  bool reliable = false;     ///< arm the ack/retransmit layer
  runtime::DisseminationKind dissemination =
      runtime::DisseminationKind::kUnicast;  ///< revocation fanout strategy
  double loss = 0.0;         ///< seeded inbound loss fraction (test adversity)
  std::uint64_t fault_seed = 1;
  bool resume = false;   ///< restarted node: skip the scripted one-shot duties
  int lifetime_ms = 0;   ///< override node lifetime (0 = derive from te_ms)
  std::uint64_t chaos_seed = 1;  ///< --proc-chaos kill/restart schedule
  bool shards = false;   ///< sharded deployment: 4 managers in 2 groups
  std::string trace_dir;  ///< per-process span capture directory (empty = off)
};

// The fixed 8-node deployment every mode runs.
constexpr std::uint32_t kManagerIds[] = {0, 1, 2};
constexpr std::uint32_t kHostIds[] = {100, 101, 102, 103};
constexpr std::uint32_t kAgentId = 9000;
constexpr std::uint32_t kCutHostId = 103;
constexpr int kManagers = 3;
constexpr int kHosts = 4;

// Multi-process script offsets (ms from each process's start).
constexpr int kGrantAtMs = 500;
constexpr int kAgentPollStartMs = 1200;
constexpr int kRevokeAtMs = 3200;
/// The cut host's partition arms this long before the revoke.
constexpr int kBlockLeadMs = 200;

// --shards variant: 4 managers in 2 groups ({0,1} owns everything at epoch 1;
// the shard holding the user migrates to {2,3} mid-script) and a later revoke
// so the flip — including a --proc-chaos kill during the handoff — completes
// before the new owner must act on the migrated key.
constexpr std::uint32_t kShardManagerIds[] = {0, 1, 2, 3};
constexpr std::uint32_t kShardRevoker = 2;  ///< first member of the new owner
constexpr int kShardHandoffAtMs = 2000;
constexpr int kShardRevokeAtMs = 3600;

std::vector<std::uint32_t> manager_raw_ids(bool shards) {
  std::vector<std::uint32_t> ids;
  if (shards) {
    ids.assign(std::begin(kShardManagerIds), std::end(kShardManagerIds));
  } else {
    ids.assign(std::begin(kManagerIds), std::end(kManagerIds));
  }
  return ids;
}

/// The sharded deployment's map: two shards over groups {0,1} and {2,3}.
/// Epoch 1 places everything on group 0; epoch 2 moves the shard holding the
/// scripted user to group 1 — exactly one live slice migration. Every
/// process derives both maps independently (no coordination channel), which
/// is why placement is `assigned`, not ring-hashed.
shard::ShardMap sharded_map(bool flipped) {
  const std::vector<std::vector<HostId>> groups = {
      {HostId(0), HostId(1)}, {HostId(2), HostId(3)}};
  std::vector<std::uint32_t> owner = {0, 0};
  shard::ShardMap initial =
      shard::ShardMap::assigned(groups, owner, /*epoch=*/1);
  if (!flipped) return initial;
  owner[initial.shard_of(AppId{1}, UserId{7})] = 1;
  return shard::ShardMap::assigned(groups, owner, /*epoch=*/2);
}

/// How long a node process serves before exiting cleanly: the script plus
/// three Te periods for the cache to expire plus slack for slow CI machines.
int node_lifetime_ms(const Options& opt) {
  return (opt.shards ? kShardRevokeAtMs : kRevokeAtMs) + 3 * opt.te_ms + 2000;
}

/// A node's actual lifetime: the --lifetime-ms override (restarted chaos
/// victims get the remaining schedule) or the standard derivation.
int lifetime_of(const Options& opt) {
  return opt.lifetime_ms > 0 ? opt.lifetime_ms : node_lifetime_ms(opt);
}

std::int64_t system_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The Te verdict of both orchestrators: how long after the revoke quorum
/// the cut host last allowed, and the margin left to the bound. VACUOUS
/// (a failure) when no allow came after the quorum: the run never
/// exercised the cached-allow window Te bounds. Returns true when HELD.
bool te_verdict(const char* mode, const std::string& what,
                std::int64_t quorum_us, std::int64_t last_allow_us,
                int te_ms) {
  const double over_ms =
      static_cast<double>(last_allow_us - quorum_us) / 1000.0;
  const bool vacuous = over_ms <= 0.0;
  const bool held = !vacuous && over_ms <= static_cast<double>(te_ms);
  std::printf(
      "wan_node %s: Te bound %s: last allow %.1f ms after revoke quorum, "
      "margin %.1f ms to the %d ms bound — %s\n",
      mode, what.c_str(), over_ms, static_cast<double>(te_ms) - over_ms,
      te_ms, vacuous ? "VACUOUS" : held ? "HELD" : "VIOLATED");
  return held;
}

void sleep_until_offset(Clock::time_point t0, int offset_ms) {
  std::this_thread::sleep_until(t0 + std::chrono::milliseconds(offset_ms));
}

/// The protocol knobs every node of a deployment must agree on.
proto::ProtocolConfig make_config(const Options& opt) {
  proto::ProtocolConfig config;
  config.check_quorum = 2;
  config.Te = sim::Duration::millis(opt.te_ms);
  config.dissemination.kind = opt.dissemination;
  config.query_timeout = sim::Duration::millis(200);
  config.max_attempts = 2;
  config.cache_sweep_period = sim::Duration::millis(100);
  config.update_retransmit = sim::Duration::millis(200);
  config.revoke_retransmit = sim::Duration::millis(200);
  config.sync_retransmit = sim::Duration::millis(200);
  return config;
}

/// Every process derives the same user keypair from the same seed, so hosts
/// can verify what the agent signs without any key-distribution protocol.
auth::KeyPair shared_keypair() {
  Rng rng{12345};
  return auth::generate_keypair(rng);
}

/// Atomic rewrite: a scraper (tail -f, a textfile collector, a test) reading
/// mid-update must see either the old exposition or the new one, never a
/// truncated half. fopen(path, "w") would truncate the live file in place —
/// so write a sibling tmp and rename it over the target instead.
bool write_metrics_file(const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = obs::Registry::global().prometheus_text();
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// Background exporter: rewrites `path` every 500 ms until stopped, then
/// once more so the file reflects the final counter values.
class MetricsExporter {
 public:
  explicit MetricsExporter(std::string path) : path_(std::move(path)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~MetricsExporter() { stop(); }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_one();
    thread_.join();
    write_metrics_file(path_);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      lock.unlock();
      write_metrics_file(path_);
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(500),
                   [this] { return stopped_; });
    }
  }

  const std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// --realtime: the single-process loopback smoke (PR 3), unchanged in spirit.

struct Smoke {
  static runtime::EnvOptions loopback_options(int delay_us) {
    runtime::EnvOptions eopts;
    eopts.delay = sim::Duration::micros(delay_us);
    return eopts;
  }

  explicit Smoke(const Options& opt)
      : opt_(opt), fabric_(loopback_options(opt.delay_us)) {}

  int run() {
    build();
    if (!warm_up()) return fail("cache warm-up");
    if (!invoke_end_to_end()) return fail("user-agent invoke");
    if (!revoke_and_verify_te()) return fail("Te bound verification");
    fabric_.stop_all();
    std::printf("wan_node --realtime: OK (%zu datagrams delivered)\n",
                static_cast<std::size_t>(fabric_.delivered()));
    return 0;
  }

 private:
  const AppId app_{1};
  const UserId alice_{7};

  void build() {
    config_ = make_config(opt_);

    for (const std::uint32_t id : kManagerIds) manager_ids_.push_back(HostId(id));
    for (const std::uint32_t id : kHostIds) host_ids_.push_back(HostId(id));

    for (int i = 0; i < kManagers + kHosts + 1; ++i) {
      envs_.push_back(std::make_unique<runtime::ThreadedEnv>(fabric_));
    }
    for (int i = 0; i < kManagers; ++i) {
      managers_.push_back(std::make_unique<proto::ManagerHost>(
          manager_ids_[static_cast<std::size_t>(i)], *envs_[static_cast<std::size_t>(i)],
          clk::LocalClock::perfect(), config_));
    }
    names_.set_managers(app_, manager_ids_);
    for (int i = 0; i < kManagers; ++i) {
      envs_[static_cast<std::size_t>(i)]->run_sync([this, i] {
        managers_[static_cast<std::size_t>(i)]->manager().manage_app(app_, manager_ids_);
      });
    }

    const auth::KeyPair kp = shared_keypair();
    keys_.register_user(alice_, kp.public_key);
    for (int i = 0; i < kHosts; ++i) {
      auto& env = *envs_[static_cast<std::size_t>(kManagers + i)];
      hosts_.push_back(std::make_unique<proto::AppHost>(
          host_ids_[static_cast<std::size_t>(i)], env, clk::LocalClock::perfect(),
          names_, keys_, config_));
      env.run_sync([this, i] {
        hosts_[static_cast<std::size_t>(i)]->controller().register_app(
            app_, [](UserId, const std::string& p) { return "ok:" + p; });
      });
    }

    auto& agent_env = *envs_.back();
    agent_ = std::make_unique<proto::UserAgent>(HostId(kAgentId), alice_, kp,
                                                agent_env,
                                                proto::UserAgent::Config{});
    agent_env.transport().register_endpoint(
        HostId(kAgentId), [this](HostId from, const net::MessagePtr& msg) {
          agent_->on_message(from, msg);
        });
  }

  // Polls `pred` until it holds or `timeout_ms` of wall clock elapses.
  bool await(const std::function<bool()>& pred, int timeout_ms = 10000) {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  bool submit(int mgr, acl::Op op) {
    std::mutex mu;
    bool done = false;
    envs_[static_cast<std::size_t>(mgr)]->run_sync([&, this] {
      managers_[static_cast<std::size_t>(mgr)]->manager().submit_update(
          app_, op, alice_, acl::Right::kUse,
          [&](const proto::UpdateOutcome&) {
            const std::lock_guard<std::mutex> lock(mu);
            done = true;
          });
    });
    return await([&] {
      const std::lock_guard<std::mutex> lock(mu);
      return done;
    });
  }

  // Returns the decision's allowed bit, or -1 on timeout.
  int check(int host) {
    std::mutex mu;
    bool done = false;
    bool allowed = false;
    envs_[static_cast<std::size_t>(kManagers + host)]->run_sync([&, this] {
      hosts_[static_cast<std::size_t>(host)]->controller().check_access(
          app_, alice_, [&](const proto::AccessDecision& d) {
            const std::lock_guard<std::mutex> lock(mu);
            allowed = d.allowed;
            done = true;
          });
    });
    if (!await([&] {
          const std::lock_guard<std::mutex> lock(mu);
          return done;
        })) {
      return -1;
    }
    return allowed ? 1 : 0;
  }

  bool warm_up() {
    const Clock::time_point t0 = Clock::now();
    if (!submit(0, acl::Op::kAdd)) return false;
    for (int h = 0; h < kHosts; ++h) {
      if (check(h) != 1) {
        std::fprintf(stderr, "host %d denied a granted user\n", h);
        return false;
      }
    }
    if (opt_.verbose) {
      std::printf("  grant + %d checks in %.1f ms\n", kHosts, ms_since(t0));
    }
    return true;
  }

  bool invoke_end_to_end() {
    std::mutex mu;
    bool done = false;
    proto::InvokeResult result;
    envs_.back()->run_sync([&, this] {
      agent_->invoke(app_, {host_ids_[0], host_ids_[1]}, "hello",
                     [&](const proto::InvokeResult& r) {
                       const std::lock_guard<std::mutex> lock(mu);
                       result = r;
                       done = true;
                     });
    });
    if (!await([&] {
          const std::lock_guard<std::mutex> lock(mu);
          return done;
        })) {
      return false;
    }
    if (!result.ok || result.result != "ok:hello") {
      std::fprintf(stderr, "invoke failed (ok=%d result=%s)\n", result.ok,
                   result.result.c_str());
      return false;
    }
    if (opt_.verbose) std::printf("  invoke round-trip ok\n");
    return true;
  }

  bool revoke_and_verify_te() {
    // Cut the last host off from ALL inbound traffic: no revoke notification
    // and no query replies can reach it. Only its cached entry (te = Te/b)
    // keeps allowing — the worst case the Te bound is designed for.
    const int cut = kHosts - 1;
    envs_[static_cast<std::size_t>(kManagers + cut)]->transport().set_endpoint_down(
        host_ids_[static_cast<std::size_t>(cut)], true);

    if (!submit(1, acl::Op::kRevoke)) return false;
    const Clock::time_point quorum_at = Clock::now();

    // Connected hosts converge to deny quickly (RevokeNotify flush).
    if (!await([this] { return check(0) == 0; }, opt_.te_ms)) {
      std::fprintf(stderr, "connected host still allowing after revoke\n");
      return false;
    }
    if (opt_.verbose) {
      std::printf("  connected host denied %.1f ms after quorum\n",
                  ms_since(quorum_at));
    }

    // The cut host may keep allowing off its cache, but only within Te.
    double last_allow_ms = 0.0;
    while (true) {
      const int r = check(cut);
      const double t = ms_since(quorum_at);
      if (r == 1) {
        last_allow_ms = t;
      } else {
        break;  // denied (cache expired, quorum unreachable -> deny policy)
      }
      if (t > 3.0 * opt_.te_ms) {
        std::fprintf(stderr, "cut host never converged to deny\n");
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::printf(
        "  Te bound: last allow at cut host %.1f ms after revoke quorum "
        "(bound %d ms) — %s\n",
        last_allow_ms, opt_.te_ms,
        last_allow_ms <= opt_.te_ms ? "HELD" : "VIOLATED");
    return last_allow_ms <= static_cast<double>(opt_.te_ms);
  }

  int fail(const char* stage) {
    std::fprintf(stderr, "wan_node --realtime: FAILED at %s\n", stage);
    fabric_.stop_all();
    return 1;
  }

  Options opt_;
  runtime::LoopbackFabric fabric_;
  proto::ProtocolConfig config_;
  ns::NameService names_;
  auth::KeyRegistry keys_;
  std::vector<HostId> manager_ids_;
  std::vector<HostId> host_ids_;
  std::vector<std::unique_ptr<runtime::ThreadedEnv>> envs_;
  std::vector<std::unique_ptr<proto::ManagerHost>> managers_;
  std::vector<std::unique_ptr<proto::AppHost>> hosts_;
  std::unique_ptr<proto::UserAgent> agent_;
};

// ---------------------------------------------------------------------------
// --role: one node of a multi-process UDP deployment.

int role_error(const std::string& what) {
  std::fprintf(stderr, "wan_node --role: %s\n", what.c_str());
  return 2;
}

/// Polls for the topology file until it exists and parses (the smoke
/// orchestrator writes it atomically only after every child has announced
/// its bound port), or until the deadline passes.
std::optional<runtime::Topology> wait_for_topology(const std::string& path,
                                                   int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    std::string error;
    std::optional<runtime::Topology> topo =
        runtime::Topology::load(path, &error);
    if (topo && topo->size() > 0) return topo;
    if (Clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::unique_ptr<runtime::SocketTransport> open_transport(const Options& opt) {
  std::string error;
  runtime::EnvOptions eopts;
  eopts.reliability.enabled = opt.reliable;
  // Distinct jitter per node keeps retransmit schedules from synchronizing.
  eopts.reliability.jitter_seed = opt.id + 1;
  // A topology that already exists (no --listen, or a restarted node) is
  // loaded by the transport itself before its reactor starts: the transport
  // accepts frames only from registered peer addresses, so a peer's frame
  // must never arrive ahead of that peer's route.
  std::optional<runtime::Topology> topo =
      runtime::Topology::load(opt.topology, &error);
  if (topo) eopts.topology_path = opt.topology;
  if (!opt.listen.empty()) {
    eopts.listen = opt.listen;
  } else {
    // No explicit bind address: this node's topology entry is it, so the
    // file must already exist.
    if (!topo) {
      role_error(error);
      return nullptr;
    }
    const runtime::NodeAddress* self = topo->find(HostId(opt.id));
    if (self == nullptr) {
      role_error("host id " + std::to_string(opt.id) +
                 " not in topology (and no --listen)");
      return nullptr;
    }
    eopts.listen = self->to_string();
  }
  std::unique_ptr<runtime::SocketTransport> transport =
      runtime::SocketTransport::create(eopts, &error);
  if (!transport) {
    role_error(error);
    return nullptr;
  }
  if (opt.loss > 0.0) {
    runtime::FaultPlan plan;
    plan.seed = opt.fault_seed + opt.id;  // distinct stream per node
    plan.loss = opt.loss;
    transport->set_fault_plan(plan);
  }
  // Announce the kernel-assigned port before waiting on the topology: the
  // smoke orchestrator scrapes this line from every child, then writes the
  // topology file everyone is waiting for.
  std::printf("NODE_PORT %u\n", transport->local_port());
  std::fflush(stdout);
  if (topo) return transport;
  topo = wait_for_topology(opt.topology, /*timeout_ms=*/15000);
  if (!topo) {
    role_error("topology file '" + opt.topology + "' never appeared");
    return nullptr;
  }
  for (const auto& [id, addr] : topo->entries()) {
    if (!transport->add_peer(HostId(id), addr)) {
      role_error("topology host " + std::to_string(id) +
                 ": cannot resolve '" + addr.host + "'");
      return nullptr;
    }
  }
  return transport;
}

int run_manager(const Options& opt, runtime::SocketTransport& transport) {
  const AppId app{1};
  const UserId alice{7};
  std::vector<HostId> manager_ids;
  for (const std::uint32_t id : manager_raw_ids(opt.shards)) {
    manager_ids.push_back(HostId(id));
  }
  const proto::ProtocolConfig config = make_config(opt);

  runtime::ThreadedEnv env(transport);
  proto::ManagerHost mgr(HostId(opt.id), env, clk::LocalClock::perfect(),
                         config);
  // Sharded: a manager's quorum set IS its group; the paper's C-of-M
  // machinery runs per group, unchanged.
  std::vector<HostId> quorum_set = manager_ids;
  if (opt.shards) {
    quorum_set = opt.id < 2
                     ? std::vector<HostId>{HostId(0), HostId(1)}
                     : std::vector<HostId>{HostId(2), HostId(3)};
  }
  env.run_sync([&] {
    mgr.manager().manage_app(app, quorum_set);
    if (opt.shards) mgr.manager().set_shard_map(app, sharded_map(false));
  });

  // Durable state: open the journal, replay whatever survived a previous
  // incarnation, and — only when there WAS a previous incarnation — re-sync
  // from peers to pick up updates issued while this manager was dead. A
  // fresh simultaneous boot must not sync: its peers are equally fresh and
  // would be asked to vouch for state nobody has yet.
  std::unique_ptr<proto::ManagerJournal> journal;
  bool restarted = false;
  if (!opt.state_dir.empty()) {
    std::string error;
    journal = proto::ManagerJournal::open(opt.state_dir, &error);
    if (!journal) return role_error(error);
    std::size_t replayed = 0;
    env.run_sync(
        [&] { replayed = mgr.manager().attach_journal(journal.get()); });
    restarted = journal->had_state();
    if (restarted) {
      std::printf("JOURNAL_REPLAYED %zu\n", replayed);
      std::fflush(stdout);
    }
  }
  const auto restart_sync = [&] {
    env.run_sync([&] { mgr.manager().restart_sync(app); });
    // RESYNCED means the sync actually completed, not merely started.
    const auto sync_deadline = Clock::now() + std::chrono::seconds(10);
    bool synced = false;
    while (!synced && Clock::now() < sync_deadline) {
      env.run_sync([&] { synced = mgr.manager().synced(app); });
      if (!synced) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (synced) {
      std::printf("RESYNCED %lld\n", static_cast<long long>(system_us()));
      std::fflush(stdout);
    }
  };
  // Sharded, a restarted incarnation syncs only after re-entering the flip
  // below, so its sync can adopt a slice it re-acquires from nobody.
  if (restarted && !opt.shards) restart_sync();

  const Clock::time_point t0 = Clock::now();
  std::printf("NODE_READY role=manager id=%u port=%u\n", opt.id,
              transport.local_port());
  std::fflush(stdout);

  if (!opt.resume && opt.id == kManagerIds[0]) {
    sleep_until_offset(t0, kGrantAtMs);
    env.run_sync([&] {
      mgr.manager().submit_update(app, acl::Op::kAdd, alice, acl::Right::kUse,
                                  [](const proto::UpdateOutcome&) {
                                    std::printf("GRANT_OK_US %lld\n",
                                                static_cast<long long>(
                                                    system_us()));
                                    std::fflush(stdout);
                                  });
    });
  }
  if (opt.shards) {
    // The live rebalance: every manager proposes the flipped map, old owners
    // stream their migrating slices, and each commits once its own outbound
    // handoffs drain (receivers drain vacuously and gate answering on the
    // complete series instead). A restarted chaos victim re-enters here
    // immediately — its re-streamed series is idempotent at the receivers —
    // so a SIGKILL mid-handoff stalls the flip only until the restart.
    if (!opt.resume) sleep_until_offset(t0, kShardHandoffAtMs);
    const shard::ShardMap next = sharded_map(true);
    env.run_sync([&] { mgr.manager().begin_shard_handoff(app, next); });
    const auto drain_deadline = Clock::now() + std::chrono::seconds(10);
    bool drained = false;
    while (!drained && Clock::now() < drain_deadline) {
      env.run_sync([&] { drained = mgr.manager().handoff_drained(app); });
      if (!drained) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (drained) {
      env.run_sync([&] { mgr.manager().commit_shard_map(app, next); });
      if (opt.id == kShardRevoker) {
        std::vector<HostId> host_ids;
        for (const std::uint32_t id : kHostIds) host_ids.push_back(HostId(id));
        env.run_sync([&] { mgr.manager().announce_shard_map(app, host_ids); });
        std::printf("SHARD_FLIP_US %lld\n",
                    static_cast<long long>(system_us()));
        std::fflush(stdout);
      }
    } else {
      std::printf("HANDOFF_STUCK\n");
      std::fflush(stdout);
    }
    if (restarted) restart_sync();
  }

  const std::uint32_t revoker = opt.shards ? kShardRevoker : kManagerIds[1];
  const int revoke_at = opt.shards ? kShardRevokeAtMs : kRevokeAtMs;
  if (!opt.resume && opt.id == revoker) {
    sleep_until_offset(t0, revoke_at);
    env.run_sync([&] {
      mgr.manager().submit_update(app, acl::Op::kRevoke, alice,
                                  acl::Right::kUse,
                                  [](const proto::UpdateOutcome&) {
                                    // The instant the revoke reached its
                                    // write quorum — the Te clock starts now.
                                    std::printf("REVOKE_QUORUM_US %lld\n",
                                                static_cast<long long>(
                                                    system_us()));
                                    std::fflush(stdout);
                                  });
    });
  }

  sleep_until_offset(t0, lifetime_of(opt));
  transport.shutdown();
  return 0;
}

int run_host(const Options& opt, runtime::SocketTransport& transport) {
  const AppId app{1};
  std::vector<HostId> manager_ids;
  for (const std::uint32_t id : manager_raw_ids(opt.shards)) {
    manager_ids.push_back(HostId(id));
  }
  const proto::ProtocolConfig config = make_config(opt);

  ns::NameService names;
  names.set_managers(app, manager_ids);
  // Sharded: queries route to the owner group of the epoch-1 map; the flip
  // to epoch 2 arrives over the wire (ShardMapAnnounce from the new owner).
  if (opt.shards) names.set_shard_map(app, sharded_map(false));
  auth::KeyRegistry keys;
  keys.register_user(UserId(7), shared_keypair().public_key);

  runtime::ThreadedEnv env(transport);
  proto::AppHost host(HostId(opt.id), env, clk::LocalClock::perfect(), names,
                      keys, config);
  env.run_sync([&] {
    host.controller().register_app(
        app, [](UserId, const std::string& p) { return "ok:" + p; });
  });
  const Clock::time_point t0 = Clock::now();
  std::printf("NODE_READY role=host id=%u port=%u\n", opt.id,
              transport.local_port());
  std::fflush(stdout);

  if (!opt.resume && opt.id == kCutHostId) {
    sleep_until_offset(
        t0, (opt.shards ? kShardRevokeAtMs : kRevokeAtMs) - kBlockLeadMs);
    // One-way partition landing right after a grant confirmation — the
    // paper's worst case. The cached entry is dropped, so the agent's next
    // invoke re-queries the managers, and the moment that quorum grants,
    // nothing the managers send (RevokeNotify, QueryResponse) gets in any
    // more. The agent can still invoke through this host, the fresh entry
    // outlives the revoke quorum by nearly te, and only its expiry can end
    // access — the bound under test. A block at a fixed time would leave
    // the entry to expire on its own schedule, often before the revoke, so
    // no allow would follow the quorum.
    env.run_sync([&] {
      host.controller().mutable_cache(app)->clear();
      host.controller().set_decision_observer(
          [&transport, manager_ids,
           armed = true](const proto::AccessDecision& d) mutable {
            if (!armed || !d.allowed ||
                d.path != proto::DecisionPath::kQuorumGranted) {
              return;
            }
            armed = false;
            for (const HostId m : manager_ids) {
              transport.block_inbound_from(m, true);
            }
            std::printf("BLOCKED_MANAGERS_US %lld\n",
                        static_cast<long long>(system_us()));
            std::fflush(stdout);
          });
    });
  }

  sleep_until_offset(t0, lifetime_of(opt));
  transport.shutdown();
  return 0;
}

int run_agent(const Options& opt, runtime::SocketTransport& transport) {
  const AppId app{1};
  const UserId alice{7};
  const auth::KeyPair kp = shared_keypair();

  runtime::ThreadedEnv env(transport);
  proto::UserAgent agent(HostId(kAgentId), alice, kp, env,
                         proto::UserAgent::Config{});
  env.transport().register_endpoint(
      HostId(kAgentId), [&](HostId from, const net::MessagePtr& msg) {
        agent.on_message(from, msg);
      });
  const Clock::time_point t0 = Clock::now();
  std::printf("NODE_READY role=agent id=%u port=%u\n", kAgentId,
              transport.local_port());
  std::fflush(stdout);

  sleep_until_offset(t0, kAgentPollStartMs);

  // Poll invocations through the cut host only: its answers are the ones the
  // Te bound constrains once the managers are blocked away from it.
  bool ever_allowed = false;
  bool denied_after_revoke = false;
  std::int64_t last_allow_us = 0;
  int polls = 0;
  const int deadline_ms = lifetime_of(opt) - 500;
  while (ms_since(t0) < deadline_ms) {
    // Every few polls, also invoke via a CONNECTED host. Its outcome is
    // deliberately ignored — the Te oracle is the cut host's cache alone —
    // but the side effect matters: the connected host's re-queries keep it
    // registered at the *current* owner group, so the revoke's notify
    // fan-out (and the revocation's causal chain in a --trace capture)
    // reaches beyond the manager group. The cut host can never witness the
    // flush; a connected host can.
    if (polls++ % 8 == 0) {
      auto side_done = std::make_shared<std::atomic<bool>>(false);
      env.run_sync([&] {
        agent.invoke(app, {HostId(kHostIds[0])}, "ping",
                     [side_done](const proto::InvokeResult&) {
                       side_done->store(true);
                     });
      });
      const auto side_deadline = Clock::now() + std::chrono::seconds(2);
      while (!side_done->load() && Clock::now() < side_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::mutex mu;
    bool done = false;
    bool ok = false;
    env.run_sync([&] {
      agent.invoke(app, {HostId(kCutHostId)}, "hello",
                   [&](const proto::InvokeResult& r) {
                     const std::lock_guard<std::mutex> lock(mu);
                     ok = r.ok;
                     done = true;
                   });
    });
    const auto wait_deadline = Clock::now() + std::chrono::seconds(5);
    while (true) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (done) break;
      }
      if (Clock::now() >= wait_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (ok) {
      ever_allowed = true;
      last_allow_us = system_us();
      if (opt.verbose) {
        std::printf("  allow at +%.0f ms\n", ms_since(t0));
        std::fflush(stdout);
      }
    } else if (ms_since(t0) >
               (opt.shards ? kShardRevokeAtMs : kRevokeAtMs)) {
      // Transient denies before the revoke (e.g. a query attempt racing the
      // very first grant) are retried; a deny after it is the revocation
      // taking effect at the cut host.
      denied_after_revoke = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }

  int rc = 0;
  if (!ever_allowed) {
    std::printf("AGENT_NEVER_ALLOWED\n");
    rc = 1;
  } else if (!denied_after_revoke) {
    std::printf("AGENT_NEVER_DENIED\n");
    rc = 1;
  } else {
    std::printf("LAST_ALLOW_US %lld\n", static_cast<long long>(last_allow_us));
  }
  std::fflush(stdout);
  transport.shutdown();
  return rc;
}

/// --trace DIR: per-process span capture for the multi-process modes.
///
/// Installs BOTH observability hooks for the life of the role: an in-memory
/// Tracer (full fidelity, exported as DIR/<role>-<id>.trace on clean exit)
/// and a crash-surviving FlightRecorder ring at DIR/<role>-<id>.ring whose
/// final events an orchestrator harvests after a SIGKILL. The wall-clock
/// anchor — one instant sampled on the runtime clock (steady, since the
/// fabric epoch) and on system_clock — is what lets tools/trace_merge
/// interleave every process's events on one machine-shared timeline.
class RoleTrace {
 public:
  RoleTrace(const Options& opt, const runtime::SocketTransport& transport)
      : dir_(opt.trace_dir) {
    if (dir_.empty()) return;
    ::mkdir(dir_.c_str(), 0755);  // fine if it already exists
    label_ = opt.role + "-" + std::to_string(opt.id);
    node_ = opt.id;
    // Anchor sampling: one wall-clock read bracketed by two runtime-clock
    // reads. A preemption between the reads would skew every merged
    // timestamp of this process by the gap, so take the tightest of several
    // brackets and anchor at its midpoint — worst-case anchor error is half
    // the bracket width (microseconds, far below a cross-process hop).
    std::int64_t best_bracket_ns = std::numeric_limits<std::int64_t>::max();
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point before = Clock::now();
      const std::int64_t wall_us = system_us();
      const std::int64_t bracket_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               before)
              .count();
      if (bracket_ns < best_bracket_ns) {
        best_bracket_ns = bracket_ns;
        anchor_wall_us_ = wall_us;
        anchor_runtime_ns_ =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                before - transport.epoch())
                .count() +
            bracket_ns / 2;
      }
    }
    std::string error;
    ring_ = obs::FlightRecorder::create(dir_ + "/" + label_ + ".ring", node_,
                                        /*capacity=*/4096, &error);
    if (ring_) {
      ring_->set_identity(label_, anchor_runtime_ns_, anchor_wall_us_);
      obs::install_trace_sink(ring_.get());
    } else {
      std::fprintf(stderr, "wan_node --trace: %s\n", error.c_str());
    }
    tracer_ = std::make_unique<obs::Tracer>(1u << 20);
    obs::install_tracer(tracer_.get());
  }

  ~RoleTrace() { finish(); }
  RoleTrace(const RoleTrace&) = delete;
  RoleTrace& operator=(const RoleTrace&) = delete;

  /// Uninstalls the hooks and exports the full span stream. Called after the
  /// role's env (and its recording threads) are gone.
  void finish() {
    if (tracer_ == nullptr) return;
    obs::install_tracer(nullptr);
    obs::install_trace_sink(nullptr);
    const obs::ProcessTrace pt = obs::snapshot_process_trace(
        *tracer_, label_, node_, anchor_runtime_ns_, anchor_wall_us_);
    std::string error;
    if (!obs::write_process_trace(dir_ + "/" + label_ + ".trace", pt,
                                  &error)) {
      std::fprintf(stderr, "wan_node --trace: %s\n", error.c_str());
    }
    tracer_.reset();
    ring_.reset();
  }

 private:
  std::string dir_;
  std::string label_;
  std::uint32_t node_ = 0;
  std::int64_t anchor_runtime_ns_ = 0;
  std::int64_t anchor_wall_us_ = 0;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::FlightRecorder> ring_;
};

int run_role(const Options& opt) {
  // Socket transports move bytes, not pointers: the wire codecs must be
  // registered before the first frame is encoded or decoded.
  proto::register_wire_messages();
  auto transport = open_transport(opt);
  if (!transport) return 2;
  // Hooks go in before any protocol module exists, so the very first grant
  // or query span lands in the capture.
  RoleTrace trace(opt, *transport);
  int rc = 2;
  if (opt.role == "manager") {
    rc = run_manager(opt, *transport);
  } else if (opt.role == "host") {
    rc = run_host(opt, *transport);
  } else {
    rc = run_agent(opt, *transport);
  }
  trace.finish();
  // Every frame of the deployment comes from a registered peer address, so
  // the orchestrator requires this to read 0.
  std::printf("SPOOFED_DROPS %llu\n",
              static_cast<unsigned long long>(
                  obs::Registry::global()
                      .counter("wan_udp_drops_total{reason=\"spoofed_source\"}")
                      .value()));
  return rc;
}

// ---------------------------------------------------------------------------
// --udp-smoke: orchestrates the 8 node processes and asserts the Te bound.

struct ChildProc {
  pid_t pid = -1;
  std::string name;
  std::string out_path;
  int exit_code = -1;
  bool exited = false;
  bool killed = false;  ///< chaos victim: nonzero exit is the point, not a bug
  Clock::time_point spawned_at;
};

/// Forks and execs this binary with `args`, stdout redirected to `out_path`
/// (the parent scrapes it). pid stays -1 when fork fails.
ChildProc spawn_child(const char* argv0, const std::string& name,
                      const std::string& out_path,
                      const std::vector<std::string>& args) {
  ChildProc child;
  child.name = name;
  child.out_path = out_path;
  child.spawned_at = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return child;
  if (pid == 0) {
    if (std::freopen(out_path.c_str(), "w", stdout) == nullptr) std::_Exit(3);
    std::vector<const char*> argv = {argv0};
    for (const std::string& a : args) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    ::execv(argv0, const_cast<char* const*>(argv.data()));
    std::_Exit(3);  // execv only returns on failure
  }
  child.pid = pid;
  return child;
}

std::optional<std::int64_t> scrape_stamp(const std::string& path,
                                         const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) {
      return std::strtoll(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return std::nullopt;
}

void dump_child_output(const ChildProc& child) {
  std::ifstream in(child.out_path);
  std::string line;
  while (std::getline(in, line)) {
    std::printf("  [%s] %s\n", child.name.c_str(), line.c_str());
  }
}

/// Phase 2 of the two-phase startup shared by the orchestrators: scrape each
/// child's NODE_PORT announcement, assemble the real topology, and publish
/// it atomically (rename, so no child ever parses a half-written file).
/// Fills `ports_out` indexed like `children`/`nodes`. On timeout kills the
/// deployment, dumps its output, and returns false.
bool publish_topology(
    const char* tag, std::vector<ChildProc>& children,
    const std::vector<std::pair<std::string, std::uint32_t>>& nodes,
    const std::string& topo_path, std::vector<std::int64_t>* ports_out) {
  std::vector<std::optional<std::int64_t>> ports(children.size());
  const auto port_deadline = Clock::now() + std::chrono::seconds(10);
  std::size_t found = 0;
  while (found < children.size()) {
    found = 0;
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (!ports[i]) {
        ports[i] = scrape_stamp(children[i].out_path, "NODE_PORT");
      }
      if (ports[i]) ++found;
    }
    if (found == children.size()) break;
    if (Clock::now() >= port_deadline) {
      std::fprintf(stderr,
                   "wan_node %s: FAILED — %zu/%zu children never announced "
                   "a port\n",
                   tag, children.size() - found, children.size());
      for (ChildProc& child : children) {
        ::kill(child.pid, SIGKILL);
        dump_child_output(child);
      }
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  runtime::Topology topo;
  ports_out->clear();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    topo.add(HostId(nodes[i].second),
             runtime::NodeAddress{"127.0.0.1",
                                  static_cast<std::uint16_t>(*ports[i])});
    ports_out->push_back(*ports[i]);
  }
  const std::string tmp_path = topo_path + ".tmp";
  {
    std::ofstream out(tmp_path);
    out << topo.serialize();
  }
  if (std::rename(tmp_path.c_str(), topo_path.c_str()) != 0) {
    std::fprintf(stderr, "wan_node %s: cannot publish topology\n", tag);
    for (const ChildProc& c : children) ::kill(c.pid, SIGKILL);
    return false;
  }
  return true;
}

int run_udp_smoke(const Options& opt, const char* argv0) {
  char dir_template[] = "/tmp/wan_udp_smoke.XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "wan_node --udp-smoke: mkdtemp failed\n");
    return 2;
  }
  const std::string topo_path = std::string(dir) + "/topology.txt";

  std::vector<std::pair<std::string, std::uint32_t>> nodes;
  for (const std::uint32_t id : manager_raw_ids(opt.shards)) {
    nodes.emplace_back("manager", id);
  }
  for (const std::uint32_t id : kHostIds) nodes.emplace_back("host", id);
  nodes.emplace_back("agent", kAgentId);

  // Phase 1: spawn every child binding port 0. The topology file does not
  // exist yet; each child binds, prints NODE_PORT, and waits for the file.
  // Ports are owned by the sockets that will use them from the instant the
  // kernel assigns them — the old bind-then-close prober could lose its port
  // to another process between close() and the child's bind().
  std::vector<ChildProc> children;
  for (const auto& [role, id] : nodes) {
    const std::string name = role + "-" + std::to_string(id);
    std::vector<std::string> args = {
        "--role",     role,
        "--id",       std::to_string(id),
        "--topology", topo_path,
        "--te-ms",    std::to_string(opt.te_ms),
        "--listen",   "127.0.0.1:0"};
    if (opt.shards) args.push_back("--shards");
    if (opt.dissemination != runtime::DisseminationKind::kUnicast) {
      args.push_back("--dissemination");
      args.push_back(runtime::to_cstring(opt.dissemination));
    }
    // Sharded runs always arm the reliability layer: the map announce and
    // the handoff series must survive whatever localhost UDP drops.
    if (opt.reliable || opt.shards) args.push_back("--reliable");
    if (opt.loss > 0.0) {
      args.push_back("--loss");
      args.push_back(std::to_string(opt.loss));
      args.push_back("--fault-seed");
      args.push_back(std::to_string(opt.fault_seed));
    }
    if (!opt.trace_dir.empty()) {
      args.push_back("--trace");
      args.push_back(opt.trace_dir);
    }
    if (opt.verbose) args.push_back("--verbose");
    ChildProc child =
        spawn_child(argv0, name, std::string(dir) + "/" + name + ".out", args);
    if (child.pid < 0) {
      std::fprintf(stderr, "wan_node --udp-smoke: fork failed\n");
      for (const ChildProc& c : children) ::kill(c.pid, SIGKILL);
      return 2;
    }
    children.push_back(std::move(child));
  }
  if (opt.verbose) {
    std::printf("  spawned %zu node processes (topology %s)\n",
                children.size(), topo_path.c_str());
  }

  // Phase 2: scrape each child's kernel-assigned port, then publish the
  // real topology.
  std::vector<std::int64_t> ports;
  if (!publish_topology("--udp-smoke", children, nodes, topo_path, &ports)) {
    return 1;
  }

  // Wait for every child, with a hard deadline: a wedged deployment must
  // fail the smoke, not hang CI.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(node_lifetime_ms(opt) + 10000);
  std::size_t remaining = children.size();
  while (remaining > 0 && Clock::now() < deadline) {
    for (ChildProc& child : children) {
      if (child.exited) continue;
      int status = 0;
      const pid_t r = ::waitpid(child.pid, &status, WNOHANG);
      if (r == child.pid) {
        child.exited = true;
        child.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        --remaining;
      }
    }
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (remaining > 0) {
    std::fprintf(stderr,
                 "wan_node --udp-smoke: FAILED — %zu process(es) still "
                 "running at deadline; killing\n",
                 remaining);
    for (ChildProc& child : children) {
      if (!child.exited) ::kill(child.pid, SIGKILL);
      dump_child_output(child);
    }
    return 1;
  }

  bool all_ok = true;
  for (const ChildProc& child : children) {
    if (child.exit_code != 0) {
      std::fprintf(stderr, "wan_node --udp-smoke: %s exited %d\n",
                   child.name.c_str(), child.exit_code);
      all_ok = false;
    }
    if (scrape_stamp(child.out_path, "SPOOFED_DROPS") !=
        std::optional<std::int64_t>(0)) {
      std::fprintf(stderr,
                   "wan_node --udp-smoke: %s did not report SPOOFED_DROPS 0\n",
                   child.name.c_str());
      all_ok = false;
    }
  }
  const std::uint32_t revoker = opt.shards ? kShardRevoker : kManagerIds[1];
  const std::optional<std::int64_t> quorum_us = scrape_stamp(
      std::string(dir) + "/manager-" + std::to_string(revoker) + ".out",
      "REVOKE_QUORUM_US");
  const std::optional<std::int64_t> last_allow_us = scrape_stamp(
      std::string(dir) + "/agent-" + std::to_string(kAgentId) + ".out",
      "LAST_ALLOW_US");
  if (!quorum_us) {
    std::fprintf(stderr,
                 "wan_node --udp-smoke: revoke never reached quorum\n");
    all_ok = false;
  }
  std::optional<std::int64_t> flip_us;
  if (opt.shards) {
    // The revoke above was submitted at the NEW owner group, so a quorum
    // stamp already implies the flip; the explicit stamp pins where the
    // handoff committed relative to it.
    flip_us = scrape_stamp(
        std::string(dir) + "/manager-" + std::to_string(kShardRevoker) +
            ".out",
        "SHARD_FLIP_US");
    if (!flip_us) {
      std::fprintf(stderr,
                   "wan_node --udp-smoke: shard map never flipped\n");
      all_ok = false;
    }
  }
  if (!last_allow_us) {
    std::fprintf(stderr, "wan_node --udp-smoke: agent saw no allow/deny "
                         "transition\n");
    all_ok = false;
  }
  if (!all_ok || opt.verbose) {
    for (const ChildProc& child : children) dump_child_output(child);
  }
  if (!all_ok) {
    std::fprintf(stderr, "wan_node --udp-smoke: FAILED (outputs kept in %s)\n",
                 dir);
    return 1;
  }

  const bool held = te_verdict(
      "--udp-smoke",
      "across " + std::to_string(children.size()) + " processes" +
          (opt.shards ? " (sharded, live rebalance)" : ""),
      *quorum_us, *last_allow_us, opt.te_ms);
  if (flip_us && quorum_us) {
    std::printf("  shard flip committed %.1f ms before the revoke\n",
                static_cast<double>(*quorum_us - *flip_us) / 1000.0);
  }
  if (!held) {
    std::fprintf(stderr, "wan_node --udp-smoke: FAILED (outputs kept in %s)\n",
                 dir);
    return 1;
  }

  // Success: tidy up the scratch dir.
  for (const ChildProc& child : children) {
    std::remove(child.out_path.c_str());
  }
  std::remove(topo_path.c_str());
  ::rmdir(dir);
  std::printf("wan_node --udp-smoke: OK (%zu processes over localhost UDP%s)\n",
              children.size(), opt.shards ? ", sharded" : "");
  return 0;
}

// ---------------------------------------------------------------------------
// --proc-chaos: the 8-process deployment plus a seeded kill/restart schedule.

/// Remaining lifetime for a restarted victim: the schedule it would have
/// served minus the time its first incarnation already consumed, plus slack
/// so it outlives the agent's poll (it must be up to answer resyncs and
/// acks, and to exit cleanly).
int remaining_lifetime_ms(const ChildProc& original, const Options& opt) {
  const int consumed = static_cast<int>(ms_since(original.spawned_at));
  return std::max(1500, node_lifetime_ms(opt) - consumed + 1000);
}

/// Recovers a SIGKILLed child's flight-recorder ring into a WANTRACE file
/// (DIR/<name>-killed.trace). Must run before the victim's restarted
/// incarnation re-creates (truncates) the ring at the same path — the
/// orchestrator calls it synchronously right after waitpid, hundreds of ms
/// ahead of the restart. Returns the recovered event count, -1 on failure.
long harvest_killed_ring(const std::string& trace_dir,
                         const std::string& name) {
  std::string error;
  const std::optional<obs::FlightRecorder::Harvested> h =
      obs::FlightRecorder::harvest(trace_dir + "/" + name + ".ring", &error);
  if (!h) {
    std::fprintf(stderr, "wan_node --proc-chaos: ring harvest of %s: %s\n",
                 name.c_str(), error.c_str());
    return -1;
  }
  const obs::ProcessTrace pt = obs::from_harvest(*h, name + "-killed");
  if (!obs::write_process_trace(trace_dir + "/" + name + "-killed.trace", pt,
                                &error)) {
    std::fprintf(stderr, "wan_node --proc-chaos: %s\n", error.c_str());
    return -1;
  }
  return static_cast<long>(pt.events.size());
}

int run_proc_chaos(const Options& opt, const char* argv0) {
  char dir_template[] = "/tmp/wan_proc_chaos.XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "wan_node --proc-chaos: mkdtemp failed\n");
    return 2;
  }
  const std::string topo_path = std::string(dir) + "/topology.txt";

  std::vector<std::pair<std::string, std::uint32_t>> nodes;
  for (const std::uint32_t id : manager_raw_ids(opt.shards)) {
    nodes.emplace_back("manager", id);
  }
  for (const std::uint32_t id : kHostIds) nodes.emplace_back("host", id);
  nodes.emplace_back("agent", kAgentId);

  // The victims, drawn from the seed. Never the revoking manager — the
  // revoke must still happen so the oracle has an instant to measure from —
  // and never the cut host (103), whose cache expiry IS the property under
  // test. Everything else is fair game mid-traffic.
  //
  // Sharded variant: ONE manager victim, SIGKILLed around the handoff —
  // either an old-owner sender (0, its slice stream dies mid-series and must
  // be re-streamed on restart) or a new-owner receiver (3, the senders
  // retransmit into the outage until its restart acks). The grant anchor is
  // ~1.5 s before the handoff begins, so grant+[1550,1900] ms lands inside
  // the streaming window when streaming is slow; on an idle machine the
  // migration takes milliseconds and the kill lands just after the flip. A
  // receiver restarted then re-enters the flip as a fresh acquisition whose
  // senders are done, and answers for the shard again only by adopting the
  // group's state in its restart sync.
  Rng chaos(opt.chaos_seed);
  const std::uint32_t victim_mgr =
      opt.shards ? (chaos.next_bool(0.5) ? 0u : 3u)
                 : (chaos.next_bool(0.5) ? 0u : 2u);
  constexpr std::uint32_t kHostPool[] = {100, 101, 102};
  const std::uint32_t victim_host =
      kHostPool[chaos.next_below(std::size(kHostPool))];
  // Kill ~[1.6, 2.6] s after the grant lands — between the cache warm-up and
  // the revocation, so the crash overlaps the revocation storm. Restart a
  // few hundred ms later, well within the outage the retry budgets absorb.
  const int kill_mgr_after_grant_ms =
      opt.shards ? 1550 + static_cast<int>(chaos.next_below(350))
                 : 1600 + static_cast<int>(chaos.next_below(1000));
  const int restart_mgr_delay_ms =
      opt.shards ? 300 + static_cast<int>(chaos.next_below(300))
                 : 300 + static_cast<int>(chaos.next_below(500));
  const int kill_host_after_grant_ms = 1600 + static_cast<int>(chaos.next_below(1000));
  const int restart_host_delay_ms = 300 + static_cast<int>(chaos.next_below(500));

  auto node_args = [&](const std::string& role, std::uint32_t id,
                       const std::string& listen) {
    std::vector<std::string> args = {
        "--role",     role,
        "--id",       std::to_string(id),
        "--topology", topo_path,
        "--te-ms",    std::to_string(opt.te_ms),
        "--listen",   listen,
        "--reliable"};
    if (opt.shards) args.push_back("--shards");
    if (opt.dissemination != runtime::DisseminationKind::kUnicast) {
      args.push_back("--dissemination");
      args.push_back(runtime::to_cstring(opt.dissemination));
    }
    if (role == "manager") {
      args.push_back("--state-dir");
      args.push_back(std::string(dir) + "/state-" + std::to_string(id));
    }
    if (!opt.trace_dir.empty()) {
      args.push_back("--trace");
      args.push_back(opt.trace_dir);
    }
    if (opt.verbose) args.push_back("--verbose");
    return args;
  };

  std::vector<ChildProc> children;
  for (const auto& [role, id] : nodes) {
    const std::string name = role + "-" + std::to_string(id);
    ChildProc child =
        spawn_child(argv0, name, std::string(dir) + "/" + name + ".out",
                    node_args(role, id, "127.0.0.1:0"));
    if (child.pid < 0) {
      std::fprintf(stderr, "wan_node --proc-chaos: fork failed\n");
      for (const ChildProc& c : children) ::kill(c.pid, SIGKILL);
      return 2;
    }
    children.push_back(std::move(child));
  }
  if (opt.shards) {
    std::printf(
        "wan_node --proc-chaos: seed %llu (sharded) — will kill manager-%u "
        "during the shard handoff (+%d ms after grant, back %d ms later)\n",
        static_cast<unsigned long long>(opt.chaos_seed), victim_mgr,
        kill_mgr_after_grant_ms, restart_mgr_delay_ms);
  } else {
    std::printf(
        "wan_node --proc-chaos: seed %llu — will kill manager-%u (+%d ms "
        "after grant, back %d ms later) and host-%u (+%d ms, back %d ms "
        "later)\n",
        static_cast<unsigned long long>(opt.chaos_seed), victim_mgr,
        kill_mgr_after_grant_ms, restart_mgr_delay_ms, victim_host,
        kill_host_after_grant_ms, restart_host_delay_ms);
  }

  std::vector<std::int64_t> ports;
  if (!publish_topology("--proc-chaos", children, nodes, topo_path, &ports)) {
    return 1;
  }

  // The schedule anchors on the grant actually landing, not on wall-clock
  // offsets: spawn skew varies, and killing a manager before the grant
  // completes would test a different (earlier, easier) interleaving.
  const std::string mgr0_out = std::string(dir) + "/manager-0.out";
  std::optional<std::int64_t> grant_us;
  const auto grant_deadline = Clock::now() + std::chrono::seconds(15);
  while (!(grant_us = scrape_stamp(mgr0_out, "GRANT_OK_US"))) {
    if (Clock::now() >= grant_deadline) {
      std::fprintf(stderr,
                   "wan_node --proc-chaos: FAILED — grant never completed\n");
      for (ChildProc& child : children) {
        ::kill(child.pid, SIGKILL);
        dump_child_output(child);
      }
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const Clock::time_point grant_at = Clock::now();

  auto index_of = [&](std::uint32_t id) -> std::size_t {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].second == id) return i;
    }
    return 0;  // unreachable: victims are drawn from the node list
  };

  struct ChaosEvent {
    Clock::time_point at;
    bool restart = false;
    std::size_t index = 0;  ///< into children/nodes/ports
  };
  std::vector<ChaosEvent> events = {
      {grant_at + std::chrono::milliseconds(kill_mgr_after_grant_ms), false,
       index_of(victim_mgr)},
      {grant_at + std::chrono::milliseconds(kill_mgr_after_grant_ms +
                                            restart_mgr_delay_ms),
       true, index_of(victim_mgr)},
  };
  if (!opt.shards) {
    // The sharded variant concentrates its adversity on the handoff: one
    // manager dies mid-migration. The flat schedule also crashes a host.
    events.push_back(
        {grant_at + std::chrono::milliseconds(kill_host_after_grant_ms),
         false, index_of(victim_host)});
    events.push_back(
        {grant_at + std::chrono::milliseconds(kill_host_after_grant_ms +
                                              restart_host_delay_ms),
         true, index_of(victim_host)});
  }
  std::sort(events.begin(), events.end(),
            [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });

  std::vector<ChildProc> restarts;
  long mgr_ring_events = -1;  ///< events harvested from the killed manager
  for (const ChaosEvent& ev : events) {
    std::this_thread::sleep_until(ev.at);
    ChildProc& victim = children[ev.index];
    const auto& [role, id] = nodes[ev.index];
    if (!ev.restart) {
      // SIGKILL: no atexit, no flush, no shutdown — the journal must already
      // be durable and the survivors must carry the protocol meanwhile.
      ::kill(victim.pid, SIGKILL);
      ::waitpid(victim.pid, nullptr, 0);
      victim.exited = true;
      victim.killed = true;
      victim.exit_code = 0;
      std::printf("  killed %s at +%.0f ms\n", victim.name.c_str(),
                  ms_since(grant_at));
      if (!opt.trace_dir.empty()) {
        // The victim's last spans survive only in its mmap ring; fold them
        // into the trace set before its restart truncates the ring file.
        const long recovered =
            harvest_killed_ring(opt.trace_dir, victim.name);
        if (role == "manager") mgr_ring_events = recovered;
        if (recovered >= 0) {
          std::printf(
              "  harvested %ld flight-recorder events from killed %s\n",
              recovered, victim.name.c_str());
        }
      }
    } else {
      // Re-exec on the original port (every peer still routes to it) with
      // --resume (its one-shot scripted duties are done or forfeited) and
      // the remaining schedule as its lifetime.
      std::vector<std::string> args = node_args(
          role, id, "127.0.0.1:" + std::to_string(ports[ev.index]));
      args.push_back("--resume");
      args.push_back("--lifetime-ms");
      args.push_back(std::to_string(remaining_lifetime_ms(victim, opt)));
      ChildProc restarted = spawn_child(
          argv0, victim.name + "-restart",
          std::string(dir) + "/" + victim.name + ".restart.out", args);
      if (restarted.pid < 0) {
        std::fprintf(stderr, "wan_node --proc-chaos: restart fork failed\n");
        for (const ChildProc& c : children) {
          if (!c.exited) ::kill(c.pid, SIGKILL);
        }
        return 2;
      }
      std::printf("  restarted %s at +%.0f ms\n", victim.name.c_str(),
                  ms_since(grant_at));
      restarts.push_back(std::move(restarted));
    }
    std::fflush(stdout);
  }
  for (ChildProc& r : restarts) children.push_back(std::move(r));

  // Wait for everything still alive, with a hard deadline.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(node_lifetime_ms(opt) + 15000);
  std::size_t remaining = 0;
  for (const ChildProc& c : children) {
    if (!c.exited) ++remaining;
  }
  while (remaining > 0 && Clock::now() < deadline) {
    for (ChildProc& child : children) {
      if (child.exited) continue;
      int status = 0;
      if (::waitpid(child.pid, &status, WNOHANG) == child.pid) {
        child.exited = true;
        child.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        --remaining;
      }
    }
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  bool all_ok = true;
  if (remaining > 0) {
    std::fprintf(stderr,
                 "wan_node --proc-chaos: FAILED — %zu process(es) still "
                 "running at deadline; killing\n",
                 remaining);
    for (ChildProc& child : children) {
      if (!child.exited) ::kill(child.pid, SIGKILL);
    }
    all_ok = false;
  }
  for (const ChildProc& child : children) {
    if (!child.killed && child.exited && child.exit_code != 0) {
      std::fprintf(stderr, "wan_node --proc-chaos: %s exited %d\n",
                   child.name.c_str(), child.exit_code);
      all_ok = false;
    }
  }

  // The recovery oracle: the restarted manager must have replayed durable
  // state and completed a resync. (The restarted host is stateless — its
  // check is simply the clean exit above.) Sharded exception: the replay
  // COUNT is timing-dependent — a killed receiver (manager 3) owned nothing
  // at epoch 1, and a killed sender (manager 0) may have already streamed
  // its slice away and compacted before the SIGKILL landed — so a zero-
  // record journal is legitimate. We still require the replay line itself
  // (the recovery path ran); the real sharded oracle is the flip + revoke
  // quorum below.
  const std::string mgr_restart_out = std::string(dir) + "/manager-" +
                                      std::to_string(victim_mgr) +
                                      ".restart.out";
  const std::optional<std::int64_t> replayed =
      scrape_stamp(mgr_restart_out, "JOURNAL_REPLAYED");
  if (!replayed || (!opt.shards && *replayed < 1)) {
    std::fprintf(stderr,
                 "wan_node --proc-chaos: FAILED — restarted manager-%u "
                 "replayed no journal records\n",
                 victim_mgr);
    all_ok = false;
  }
  if (!scrape_stamp(mgr_restart_out, "RESYNCED")) {
    std::fprintf(stderr,
                 "wan_node --proc-chaos: FAILED — restarted manager-%u never "
                 "completed its resync\n",
                 victim_mgr);
    all_ok = false;
  }
  if (!opt.trace_dir.empty() && mgr_ring_events <= 0) {
    // The flight recorder exists precisely for this moment: a SIGKILL that
    // erased the in-memory tracer must still leave the victim's final spans
    // recoverable from its mmap ring.
    std::fprintf(stderr,
                 "wan_node --proc-chaos: FAILED — no flight-recorder events "
                 "recovered from SIGKILLed manager-%u\n",
                 victim_mgr);
    all_ok = false;
  }
  if (opt.shards) {
    // The flip must complete DESPITE the mid-handoff kill: the new owner
    // only commits the migrated slice once it holds the complete series from
    // every old-group member, one of which may have died and re-streamed.
    if (!scrape_stamp(std::string(dir) + "/manager-" +
                          std::to_string(kShardRevoker) + ".out",
                      "SHARD_FLIP_US")) {
      std::fprintf(stderr,
                   "wan_node --proc-chaos: FAILED — shard map never flipped "
                   "across the kill\n");
      all_ok = false;
    }
  }

  // The Te oracle, identical to the smoke: crashes may delay convergence but
  // must never extend the window in which a revoked right is honoured.
  const std::uint32_t revoker = opt.shards ? kShardRevoker : kManagerIds[1];
  const std::optional<std::int64_t> quorum_us =
      scrape_stamp(std::string(dir) + "/manager-" + std::to_string(revoker) +
                       ".out",
                   "REVOKE_QUORUM_US");
  const std::optional<std::int64_t> last_allow_us = scrape_stamp(
      std::string(dir) + "/agent-" + std::to_string(kAgentId) + ".out",
      "LAST_ALLOW_US");
  if (!quorum_us) {
    std::fprintf(stderr,
                 "wan_node --proc-chaos: revoke never reached quorum\n");
    all_ok = false;
  }
  if (!last_allow_us) {
    std::fprintf(stderr, "wan_node --proc-chaos: agent saw no allow/deny "
                         "transition\n");
    all_ok = false;
  }
  if (all_ok) {
    all_ok = te_verdict("--proc-chaos",
                        std::string("across crashes") +
                            (opt.shards ? " (sharded, kill during handoff)"
                                        : ""),
                        *quorum_us, *last_allow_us, opt.te_ms);
    std::printf("  manager-%u replayed %lld records\n", victim_mgr,
                static_cast<long long>(replayed.value_or(0)));
  }

  if (!all_ok || opt.verbose) {
    for (const ChildProc& child : children) dump_child_output(child);
  }
  if (!all_ok) {
    std::fprintf(stderr, "wan_node --proc-chaos: FAILED (outputs kept in %s)\n",
                 dir);
    return 1;
  }

  // Success: tidy the scratch dir (out files, topology, journal state).
  for (const ChildProc& child : children) {
    std::remove(child.out_path.c_str());
  }
  for (const std::uint32_t id : manager_raw_ids(opt.shards)) {
    const std::string state = std::string(dir) + "/state-" + std::to_string(id);
    std::remove((state + "/app-1.snap").c_str());
    std::remove((state + "/app-1.log").c_str());
    ::rmdir(state.c_str());
  }
  std::remove(topo_path.c_str());
  ::rmdir(dir);
  std::printf("wan_node --proc-chaos: OK (seed %llu%s)\n",
              static_cast<unsigned long long>(opt.chaos_seed),
              opt.shards ? ", sharded" : "");
  return 0;
}

}  // namespace
}  // namespace wan

int main(int argc, char** argv) {
  wan::Options opt;
  wan::cli::Parser cli(
      "wan_node",
      "Runs the access-control protocol on the real-time runtime: all nodes\n"
      "in-process over loopback (--realtime), one node of a multi-process\n"
      "UDP deployment (--role), or the 8-process localhost UDP smoke\n"
      "orchestrator (--udp-smoke). See docs/ARCHITECTURE.md and\n"
      "docs/WIRE_FORMAT.md.");
  cli.add_flag("--realtime",
               "single-process smoke: 3 managers + 4 hosts + 1 agent on\n"
               "loopback threads; verifies the Te bound against the wall\n"
               "clock",
               &opt.realtime);
  cli.add_flag("--udp-smoke",
               "spawn the same deployment as 8 OS processes over localhost\n"
               "UDP sockets and verify the Te bound across them",
               &opt.udp_smoke);
  cli.add_flag("--proc-chaos",
               "the 8-process deployment plus a seeded kill/restart\n"
               "schedule: SIGKILL one manager and one host mid-traffic,\n"
               "restart them, and verify journal replay, resync, and the\n"
               "Te bound across the crashes (see docs/CHAOS.md)",
               &opt.proc_chaos);
  cli.add_value("--role", "ROLE",
                "run one node: manager, host, or agent (needs --id and\n"
                "--topology)",
                [&](const std::string& v) {
                  opt.role = v;
                  return v == "manager" || v == "host" || v == "agent";
                });
  cli.add_value("--id", "N", "this node's host id in the topology",
                [&](const std::string& v) {
                  std::uint64_t id = 0;
                  if (!wan::cli::parse_u64(v, &id) || id > 0xFFFFFFFEull) {
                    return false;
                  }
                  opt.id = static_cast<std::uint32_t>(id);
                  opt.id_set = true;
                  return true;
                });
  cli.add_string("--listen", "ADDR",
                 "bind address host:port (default: this node's topology\n"
                 "entry; port 0 picks an ephemeral port)",
                 &opt.listen);
  cli.add_string("--topology", "FILE",
                 "topology file: one '<host-id> <host>:<port>' per line",
                 &opt.topology);
  cli.add_value("--te-ms", "N", "revocation bound Te in ms (default 2000)",
                [&](const std::string& v) {
                  return wan::cli::parse_int(v, &opt.te_ms) && opt.te_ms > 0;
                });
  cli.add_string("--state-dir", "DIR",
                 "manager role: journal ACL state under DIR (created if\n"
                 "missing); a restarted manager replays it and re-syncs",
                 &opt.state_dir);
  cli.add_flag("--reliable",
               "arm the ack/retransmit layer on the socket fabric (critical\n"
               "messages get per-flow sequencing, retransmission, and dedup;\n"
               "heartbeats stay fire-and-forget)",
               &opt.reliable);
  cli.add_value("--dissemination", "KIND",
                "revocation fanout strategy: unicast (default), coalesced,\n"
                "or tree — every node of a deployment must agree",
                [&](const std::string& v) {
                  return wan::runtime::parse_dissemination(
                      v, &opt.dissemination);
                });
  cli.add_value("--loss", "P",
                "drop fraction P (0..1) of inbound frames, deterministically\n"
                "seeded — only converges with --reliable",
                [&](const std::string& v) {
                  char* end = nullptr;
                  opt.loss = std::strtod(v.c_str(), &end);
                  return end != v.c_str() && *end == '\0' && opt.loss >= 0.0 &&
                         opt.loss < 1.0;
                });
  cli.add_value("--fault-seed", "N", "seed for the --loss fault stream",
                [&](const std::string& v) {
                  return wan::cli::parse_u64(v, &opt.fault_seed);
                });
  cli.add_flag("--resume",
               "restarted node: skip the one-shot scripted duties (grant,\n"
               "revoke, partition) its first incarnation already performed",
               &opt.resume);
  cli.add_value("--lifetime-ms", "N",
                "serve for N ms before exiting (default: derived from\n"
                "--te-ms; restarted chaos victims get the remaining time)",
                [&](const std::string& v) {
                  return wan::cli::parse_int(v, &opt.lifetime_ms) &&
                         opt.lifetime_ms > 0;
                });
  cli.add_value("--chaos-seed", "N",
                "--proc-chaos: seed for the kill/restart schedule",
                [&](const std::string& v) {
                  return wan::cli::parse_u64(v, &opt.chaos_seed);
                });
  cli.add_flag("--shards",
               "sharded deployment: 4 managers in 2 shard groups; the shard\n"
               "holding the scripted user migrates live mid-script and the\n"
               "revoke lands at the NEW owner group (--udp-smoke runs the\n"
               "migration; --proc-chaos SIGKILLs a manager during it)",
               &opt.shards);
  cli.add_value("--delay-us", "N",
                "loopback one-way delay in us (--realtime only, default 1000)",
                [&](const std::string& v) {
                  return wan::cli::parse_int(v, &opt.delay_us) &&
                         opt.delay_us >= 0;
                });
  cli.add_string(
      "--trace", "DIR",
      "per-process span capture: each role process writes\n"
      "DIR/<role>-<id>.trace (WANTRACE v1, wall-clock anchored) on clean\n"
      "exit and keeps a crash-surviving flight-recorder ring at\n"
      "DIR/<role>-<id>.ring; orchestrators pass this through to children\n"
      "and --proc-chaos harvests the rings of SIGKILLed victims. Merge with\n"
      "tools/trace_merge",
      &opt.trace_dir);
  cli.add_flag("--verbose", "chatty per-step progress output", &opt.verbose);
  cli.add_optional_value(
      "--metrics", "[FILE]",
      "export the metrics registry (Prometheus text): with FILE, rewrite\n"
      "it twice a second while running and once on exit; without FILE,\n"
      "print to stdout on exit",
      [&] { opt.metrics = true; },
      [&](const std::string& v) {
        opt.metrics_path = v;
        return true;
      });
  if (!cli.parse(argc, argv)) return 2;

  const int modes = (opt.realtime ? 1 : 0) + (opt.udp_smoke ? 1 : 0) +
                    (opt.proc_chaos ? 1 : 0) + (opt.role.empty() ? 0 : 1);
  if (modes != 1) {
    std::fprintf(stderr,
                 "wan_node: pick exactly one of --realtime, --udp-smoke, "
                 "--proc-chaos, --role (try --help)\n");
    return 2;
  }
  if (!opt.role.empty() && (!opt.id_set || opt.topology.empty())) {
    std::fprintf(stderr, "wan_node: --role needs --id and --topology\n");
    return 2;
  }

  std::unique_ptr<wan::MetricsExporter> exporter;
  if (opt.metrics && !opt.metrics_path.empty()) {
    exporter = std::make_unique<wan::MetricsExporter>(opt.metrics_path);
  }
  int rc = 0;
  if (opt.realtime) {
    rc = wan::Smoke(opt).run();
  } else if (opt.udp_smoke) {
    rc = wan::run_udp_smoke(opt, argv[0]);
  } else if (opt.proc_chaos) {
    rc = wan::run_proc_chaos(opt, argv[0]);
  } else {
    rc = wan::run_role(opt);
  }
  if (exporter != nullptr) exporter->stop();
  if (opt.metrics && opt.metrics_path.empty()) {
    const std::string text = wan::obs::Registry::global().prometheus_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  return rc;
}
