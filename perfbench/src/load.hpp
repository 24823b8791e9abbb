// Seeded inputs, the closed-loop check driver, the update chains and the
// verdict checker.
//
// Everything a run sends is generated from --seed before the clock that
// measures it starts: the user sets, the host each request goes to, the
// order the update chains walk the churn users in, and the signed, encoded
// InvokeRequest frames themselves. The driver then only stamps, sends and
// matches replies by request_id.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "acl/store.hpp"
#include "auth/credentials.hpp"
#include "common.hpp"
#include "rig.hpp"
#include "util/rng.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int window = 1;          ///< W: closed-loop callers, one request each
  int hot_users = 0;       ///< granted, cached after warm-up
  int cold_users = 0;      ///< authenticate, hold no grant
  int churn_users = 0;     ///< granted and revoked by the update chains
  int update_chains = 0;   ///< closed-loop grant/revoke chains
  double churn_share = 0;  ///< share of checks aimed at churn users
  bool mixed = false;      ///< update chains run beside the checks
  bool journals = false;   ///< each manager journals to disk
};

/// The committed workloads; nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

enum class Kind : std::uint8_t { kHot, kCold, kChurn };

/// The seeded user population of one run.
struct Population {
  std::vector<wan::UserId> hot;
  std::vector<wan::UserId> cold;
  std::vector<wan::UserId> churn;
  std::vector<wan::UserId> updaters;      ///< update-only phase (no checks)
  std::vector<wan::UserId> probe_granted; ///< per-layer probes: cached users
  std::vector<wan::UserId> probe_cold;    ///< per-layer probes: never granted
  wan::auth::KeyPair keys;
  std::uint64_t seed = 0;

  /// Every user whose key the rig registers.
  [[nodiscard]] std::vector<wan::UserId> all() const;
  /// Users granted during set-up.
  [[nodiscard]] std::vector<wan::UserId> granted_at_setup() const;
};

Population make_population(const WorkloadSpec& spec, std::uint64_t seed);

/// A block of pre-generated requests and, once driven, their outcomes.
struct RequestBatch {
  std::size_t frame_size = 0;
  std::uint64_t first_id = 0;
  std::vector<std::uint8_t> bytes;  ///< frame i at [i*frame_size, ...)
  std::vector<wan::UserId> user;
  std::vector<std::uint8_t> host;
  std::vector<Kind> kind;
  // Filled by the driver (fabric-clock nanoseconds).
  std::vector<std::int64_t> sent_ns;
  std::vector<std::int64_t> recv_ns;
  std::vector<std::uint8_t> verdict;  ///< 0 no reply, 1 allowed, 2 denied

  [[nodiscard]] std::size_t size() const noexcept { return user.size(); }
  [[nodiscard]] const std::uint8_t* frame(std::size_t i) const {
    return bytes.data() + i * frame_size;
  }
};

/// The seeded request stream: which user asks which host, with per-(user,
/// host) nonces that only grow, signed with the user's key and encoded.
class FrameSource {
 public:
  FrameSource(const WorkloadSpec& spec, const Population& pop);
  /// The next `n` requests of the stream.
  void next_batch(std::size_t n, RequestBatch* out);
  /// One request per (user, host) for each of `users` (cache warm-up).
  void warm_batch(const std::vector<wan::UserId>& users, Kind kind,
                  RequestBatch* out);
  /// A request with a fresh nonce (floor and echo probes).
  std::vector<std::uint8_t> single_frame(wan::UserId user, int host,
                                         wan::HostId to);

 private:
  void append(RequestBatch* out, wan::UserId user, int host, Kind kind,
              wan::HostId to);

  const WorkloadSpec& spec_;
  const Population& pop_;
  wan::Rng rng_;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::uint8_t> scratch_;
  std::vector<std::uint64_t> nonces_;  ///< by (user id, host)
  std::vector<std::pair<std::uint32_t, std::uint8_t>> cold_order_;
  std::size_t cold_cursor_ = 0;
};

/// Deliberate faults, each proving that one check catches what it exists for.
enum class Inject : std::uint8_t {
  kNone,
  kDropReply,   ///< the driver discards one reply: a timeout
  kDupReply,    ///< the driver sees one reply twice: a duplicate
  kGrantCold,   ///< one cold user is granted behind the checker's back
  kRevokeHot,   ///< one hot user is revoked behind the checker's back
};

struct LoopStats {
  std::uint64_t sent = 0;
  std::uint64_t replies = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t stray = 0;      ///< undecodable or unknown request id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool exhausted = false;       ///< ran out of pre-generated frames
  [[nodiscard]] double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// Samples hand-off latency while the load runs: every `every`-th reply the
/// driver posts a stamped closure onto the host loop.
struct HandoffProbe {
  int every = 0;  ///< 0 = off
  std::vector<std::int64_t> posted_ns;
  std::vector<std::int64_t> ran_ns;
  std::atomic<std::size_t> next{0};
};

/// Drives `batch` as a closed loop of `window` callers for `seconds`, then
/// drains. Requests still unanswered 2 s after the end, or after 2 s without
/// any reply, are timeouts.
LoopStats run_closed_loop(Rig& rig, RequestBatch& batch, int window,
                          double seconds, Inject inject, HandoffProbe* handoff);

/// One completed update, on the fabric clock.
struct UpdateEvent {
  wan::UserId user{};
  wan::acl::Op op = wan::acl::Op::kAdd;
  std::int64_t submit_ns = 0;
  std::int64_t quorum_ns = 0;
  std::int64_t done_ns = -1;  ///< -1 while in flight
  wan::acl::Version version{};
};

/// Closed-loop grant/revoke chains over `users` (all granted at start):
/// chain c owns every user whose index is c modulo the chain count and walks
/// them in a seeded order, toggling each; submissions rotate over managers
/// and go through ThreadedEnv::post.
class UpdateChains {
 public:
  UpdateChains(Rig& rig, std::vector<wan::UserId> users, int chains,
               std::uint64_t seed);
  void start();
  /// Stops the chains and waits for in-flight updates; false on a 10 s
  /// timeout. Events are readable afterwards.
  bool stop_and_drain();
  [[nodiscard]] const std::vector<UpdateEvent>& events() const { return events_; }

 private:
  void step(int chain);

  Rig& rig_;
  std::vector<std::vector<std::size_t>> owned_;  ///< chain -> user indices
  std::vector<wan::UserId> users_;
  std::vector<std::size_t> cursor_;
  std::vector<bool> granted_;
  std::uint64_t rotation_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> inflight_{0};
  std::vector<UpdateEvent> events_;  ///< manager loop only while running
};

/// Expected-verdict check of every reply in a batch.
struct VerdictTally {
  std::uint64_t correct = 0;
  std::uint64_t wrong = 0;
  std::uint64_t stale_allows = 0;   ///< allowed within Te of a revocation
  std::uint64_t te_violations = 0;  ///< allowed later than Te after one
};

/// Hot users must be allowed and cold users denied. A churn user's verdict
/// must match a state it held at some instant between send and reply, where
/// an update counts as either state from its submission until its quorum,
/// and an allow within Te of a revocation's quorum is a stale allow.
VerdictTally check_verdicts(const RequestBatch& batch,
                            const std::vector<UpdateEvent>& events,
                            std::int64_t te_ns);

}  // namespace perfbench
