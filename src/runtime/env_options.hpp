// EnvOptions: the one configuration surface shared by every runtime backend.
//
// Before this header each backend grew its own config struct (the simulator
// took a net::Network::Config, the loopback fabric a LoopbackFabric::Config,
// and the socket transport would have added a third). Tools that let the
// user pick a backend at the command line had to translate flags three ways.
// Now they fill one EnvOptions and hand it to whichever backend runs:
//
//   * SimEnv        — to_network_config(opts) builds the simulated network
//     (delay/jitter/loss/seed); listen/topology are ignored.
//   * LoopbackFabric — delay/jitter/loss/seed shape the in-process fabric;
//     listen/topology are ignored.
//   * SocketTransport — listen/topology_path/send_queue_limit/reliability
//     wire the socket; delay/jitter/loss are ignored (a real network
//     provides its own).
//
// Fields a backend ignores are deliberately not an error: the whole point is
// that one struct travels from flag parsing to whichever backend the run
// selects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "shard/shard_map.hpp"
#include "sim/time.hpp"

namespace wan::runtime {

/// Which runtime backend a run constructs. kSim is the discrete-event
/// simulator (an Env, not a Fabric); the other two are real-thread fabrics
/// built by make_fabric() (runtime/backend.hpp).
enum class BackendKind : std::uint8_t {
  kSim,       ///< SimEnv: virtual time, single thread
  kLoopback,  ///< LoopbackFabric: real threads, in-process delivery
  kReactor,   ///< SocketTransport: real sockets, epoll + batched syscalls
};

/// "sim" / "loopback" / "reactor" <-> BackendKind (for flags).
[[nodiscard]] const char* to_cstring(BackendKind kind) noexcept;
[[nodiscard]] bool parse_backend(const std::string& text, BackendKind* out);

/// Knobs of the socket transport's reliability layer (ack/retransmit/dedup;
/// runtime/reliable_channel.hpp). Off by default: the raw fabric keeps plain
/// UDP semantics unless a deployment opts in, and transport tests that pin
/// duplicate-delivery behavior run against the raw path.
struct ReliabilityOptions {
  bool enabled = false;
  /// First retransmit fires this long after the original send...
  sim::Duration initial_rto = sim::Duration::millis(50);
  /// ...then backs off exponentially (rto *= backoff) up to this ceiling...
  sim::Duration max_rto = sim::Duration::millis(1000);
  double backoff = 2.0;
  /// ...with each interval jittered by a uniform +/- fraction so synchronized
  /// retransmit storms decorrelate.
  double jitter = 0.1;
  /// Transmissions per message including the first; when exhausted the
  /// message is abandoned and the peer_unreachable upcall fires.
  int retry_budget = 10;
  /// Receive-side dedup remembers out-of-order seqs this far above the
  /// cumulative watermark; frames beyond it are dropped (seq_out_of_window)
  /// until retransmits fill the gap.
  std::size_t recv_window = 1024;
  /// Seed of the jitter stream (deterministic tests pin it).
  std::uint64_t jitter_seed = 1;
};

/// How a manager fans revocation notices out to the hosts caching a right
/// (src/proto/dissemination.hpp). Backend-agnostic: the strategy shapes the
/// messages a manager sends, not how any fabric moves them.
enum class DisseminationKind : std::uint8_t {
  kUnicast,    ///< one RevokeNotify per cached host per right (the reference)
  kCoalesced,  ///< one RevokeBatch per destination carrying many rights
  kTree,       ///< fan out through relay hosts via RelayForward envelopes
};

/// "unicast" / "coalesced" / "tree" <-> DisseminationKind (for flags).
[[nodiscard]] const char* to_cstring(DisseminationKind kind) noexcept;
[[nodiscard]] bool parse_dissemination(const std::string& text,
                                       DisseminationKind* out);

/// Knobs of the revocation-dissemination strategy. Defaults reproduce the
/// paper's unicast loop exactly, so existing deployments and pinned chaos
/// seeds are untouched unless a run opts in.
struct DisseminationOptions {
  DisseminationKind kind = DisseminationKind::kUnicast;
  /// Coalesced/tree: a destination's buffered batch is flushed once it holds
  /// this many (user, version) rights even if the flush timer has not fired.
  std::size_t batch_max_rights = 64;
  /// Coalesced/tree: how long a freshly revoked right may sit buffered
  /// waiting for more rights to share its frame. Small by construction —
  /// it spends a slice of the Te budget to save frames.
  sim::Duration flush_interval = sim::Duration::millis(20);
  /// Tree: destinations per relay group; each group's first member acts as
  /// the relay for the rest. 0 or 1 degenerates to coalesced-direct.
  std::size_t relay_width = 4;
  /// Recovery resync: when true managers answer SyncRequests with only the
  /// updates the requester has not yet applied (delta sync over the peer's
  /// apply log), falling back to a full snapshot when the requester's cursor
  /// predates log compaction. Off by default (full snapshots, the reference).
  bool delta_sync = false;
  /// Delta sync: apply-log entries a manager retains per app before the
  /// floor advances (older cursors then fall back to a full snapshot).
  std::size_t delta_log_cap = 1024;

  /// Validates internal consistency (aborts on misconfiguration).
  void validate() const;
  /// One-line human-readable summary ("tree relay_width=4 batch=64 ...").
  [[nodiscard]] std::string describe() const;
};

/// Shard topology of a deployment (src/shard/shard_map.hpp). Backend-
/// agnostic like everything in EnvOptions: the sim scenario, the loopback
/// conformance rigs, and wan_node's socket deployments all derive their
/// initial ShardMap from these knobs via make_shard_map().
struct ShardTopologyOptions {
  /// Manager groups the deployment partitions into; 0 or 1 = unsharded.
  std::uint32_t groups = 0;
  /// Logical shards placed over the groups; 0 = one shard per group.
  /// Fixed for the deployment's lifetime — rebalances move ownership only.
  std::uint32_t shards = 0;
  /// Placement-ring seed (pinned; see shard::kDefaultRingSeed).
  std::uint64_t ring_seed = shard::kDefaultRingSeed;
};

struct EnvOptions {
  /// Which backend to construct (tools route on this; see make_fabric()).
  BackendKind backend = BackendKind::kLoopback;

  // --- simulated-path shaping (SimEnv, LoopbackFabric) ---
  std::uint64_t seed = 1;                          ///< loss/jitter stream
  sim::Duration delay = sim::Duration::millis(1);  ///< per-datagram latency
  sim::Duration jitter = sim::Duration{};          ///< + uniform [0, jitter]
  double loss = 0.0;                               ///< i.i.d. drop probability

  // --- socket transport (SocketTransport) ---
  std::string listen;         ///< bind address "host:port"; port 0 = ephemeral
  std::string topology_path;  ///< HostId -> host:port map file (docs/WIRE_FORMAT.md)
  std::size_t send_queue_limit = 1024;  ///< outbound frames queued before drop
  ReliabilityOptions reliability;       ///< ack/retransmit layer (socket transport)
  ShardTopologyOptions sharding;        ///< manager-group partition (all backends)
  DisseminationOptions dissemination;   ///< revocation fan-out strategy (all backends)
};

/// Builds the epoch-1 shard map the topology knobs describe: `managers` is
/// split into `groups` equal contiguous groups and the shards are placed by
/// the consistent-hash ring. Returns an empty map when the topology is flat
/// (groups <= 1). Requires managers to divide evenly into the groups.
[[nodiscard]] shard::ShardMap make_shard_map(const ShardTopologyOptions& topo,
                                             const std::vector<HostId>& managers);

/// Builds the simulated network's config from the shared options: constant
/// delay (or uniform [delay, delay+jitter]) plus i.i.d. loss, matching what
/// LoopbackFabric does with the same fields on real threads.
[[nodiscard]] net::Network::Config to_network_config(const EnvOptions& opts);

}  // namespace wan::runtime
