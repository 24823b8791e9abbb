// Manager side of the protocol (§3.1, §3.3, §3.4).
//
// A manager holds the authoritative ACL for each application it manages and
// implements:
//
//  * Add/Revoke operations with *persistent dissemination*: the update is
//    retransmitted to every peer manager until acknowledged. The operation's
//    guarantee point is when an update quorum (M - C + 1 managers, counting
//    the issuer) has acknowledged — from then on, at most Te passes before
//    the operation is globally effective.
//  * The grant table: per user, the set of application hosts this manager has
//    granted cached rights to. On revocation (locally issued or received from
//    a peer) the manager forwards RevokeNotify to exactly those hosts and
//    retries until acked — or until the right would have expired anyway, at
//    which point retrying is pointless and stops (§3.4).
//  * The freeze strategy (§3.3 alternative): with heartbeats tracking peer
//    reachability on the local clock, the manager refuses to answer host
//    queries while any peer has been silent longer than Ti (scaled by the
//    clock bound b), guaranteeing the time bound without quorums at the cost
//    of availability.
//  * Crash recovery: the ACL is volatile; a recovering manager re-syncs by
//    merging snapshots from C distinct peers before answering queries. Any
//    update that completed its quorum of M - C + 1 managers is present in at
//    least M - C of the M - 1 peers, and any C-subset of peers intersects
//    that set. (Degenerate cases: with M == 1 there are no peers and the
//    store simply restarts empty; with C == M the required C peers do not
//    exist, so we sync from all M - 1 — an update acknowledged only by the
//    crashed issuer can then be lost, which is the price the paper's C == M
//    corner pays without stable storage. Expiry still bounds the damage.)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acl/store.hpp"
#include "clock/local_clock.hpp"
#include "proto/config.hpp"
#include "proto/dissemination.hpp"
#include "proto/messages.hpp"
#include "quorum/quorum.hpp"
#include "runtime/env.hpp"
#include "shard/shard_map.hpp"
#include "util/rng.hpp"

namespace wan::proto {

class ManagerJournal;

/// Result of a manager Add/Revoke operation, reported when the update quorum
/// is assembled (the paper's blocking call "returning").
struct UpdateOutcome {
  AppId app{};
  acl::AclUpdate update{};
  sim::TimePoint issued_at{};
  sim::TimePoint quorum_at{};
  int acks_at_quorum = 0;  ///< managers (incl. issuer) acked at quorum time
};

using UpdateCallback = std::function<void(const UpdateOutcome&)>;

class ManagerModule : private Disseminator::Sink {
 public:
  ManagerModule(HostId self, runtime::Env& env, clk::LocalClock clock,
                ProtocolConfig config);
  ~ManagerModule();
  ManagerModule(const ManagerModule&) = delete;
  ManagerModule& operator=(const ManagerModule&) = delete;

  /// Declares that this manager manages `app`; `managers` is the full set
  /// Managers(app) including this manager. check_quorum must be <= M.
  void manage_app(AppId app, std::vector<HostId> managers);

  /// Applies a manager-set change (§3.2: the set "changes relatively
  /// infrequently" and is published through the trusted name service; hosts
  /// pick it up when their cached resolution expires). Call on every member
  /// of the NEW set after updating the name service:
  ///  * an existing member keeps its store and prunes departed peers from
  ///    in-flight transactions;
  ///  * a newcomer starts unsynced and recovers state from C peers before
  ///    answering queries (same machinery as crash recovery).
  /// Departed managers should call forget_app().
  void reconfigure_app(AppId app, std::vector<HostId> managers);

  /// Stops managing `app` entirely (the manager left the set).
  void forget_app(AppId app);

  /// The paper's Add(A,U,R) / Revoke(A,U,R). Two phases:
  ///  1. version read — collect the freshest store version from a check
  ///     quorum of C managers (self included), so the new update's version
  ///     dominates every previously *completed* update (see VersionQuery);
  ///  2. persistent dissemination with update-quorum acknowledgment.
  /// `done` fires when the update quorum is reached (the guarantee point);
  /// dissemination to remaining managers continues in the background. Under
  /// a partition that denies even the read quorum, the operation simply
  /// blocks (retrying) until connectivity returns — the paper's blocking
  /// semantics. Under a non-trivial shard map the submit must be routed to a
  /// member of the key's owner group; a mis-routed submit is refused
  /// (counted in submits_refused_unowned(), callback dropped) exactly like a
  /// mis-routed query — the caller re-resolves and retries.
  void submit_update(AppId app, acl::Op op, UserId user, acl::Right right,
                     UpdateCallback done = nullptr);

  /// Network receive entry point.
  void on_message(HostId from, const net::MessagePtr& msg);

  /// Attaches a durable journal (proto/journal.hpp) and replays its records
  /// into the stores of currently-managed apps — call after manage_app() and
  /// before the node starts answering. Every subsequent store mutation
  /// (local issue, peer dissemination, sync merge) is appended to the
  /// journal before the manager acts on the result, and the journal is
  /// compacted to a snapshot once the log grows past a threshold. Replayed
  /// records also restore the version-stamp floor for updates this manager
  /// issued, so a restarted manager never reissues a stamp. The grant table
  /// is deliberately NOT journaled: a restarted manager that forgot a grant
  /// merely fails to forward one revocation, and the paper's Te expiry
  /// already bounds that exposure (§3.4) — the resync it runs on restart
  /// (gated on ManagerJournal::had_state()) restores the ACL itself exactly.
  /// Non-owning; pass nullptr to detach. Returns records replayed.
  std::size_t attach_journal(ManagerJournal* journal);

  /// Crash: the whole manager state is volatile (§3.4).
  void crash();
  /// Recovery: re-syncs every managed app before answering queries.
  void recover();

  /// Administrative anti-entropy: re-runs the recovery sync (pull snapshots
  /// from peers, merge, push the merge back) without a crash. Operators run
  /// this after an incident to re-converge updates stranded by issuer
  /// crashes; the chaos harness runs it at quiescence for the same reason.
  /// No-op while down, unsynced, or peerless.
  void resync(AppId app);
  /// Crash-recovery sync for an incarnation restarted from its journal:
  /// resync(), plus what recover()'s sync also does — adopt the group's
  /// state for shards stuck in pending_acquire. A new owner restarted after
  /// a flip re-enters it as a fresh acquisition whose old owners already
  /// retired their handoffs; without adoption it never answers for the
  /// shard again. No-op while down, unsynced, or peerless.
  void restart_sync(AppId app);

  [[nodiscard]] bool up() const noexcept { return up_; }
  [[nodiscard]] HostId id() const noexcept { return self_; }

  /// Whether the freeze strategy currently suppresses responses for `app`.
  /// Honours debug_override_frozen(); protocol code routes through this.
  [[nodiscard]] bool frozen(AppId app) const;
  /// The honest §3.3 computation only: has any tracked peer been silent
  /// longer than the local threshold? Ignores the debug override — the chaos
  /// oracle uses this as ground truth when auditing frozen().
  [[nodiscard]] bool frozen_by_silence(AppId app) const;
  /// Local-clock silence threshold at which frozen_by_silence trips (Ti / b).
  [[nodiscard]] sim::Duration freeze_threshold() const;
  /// Test hook: forces frozen() to the given value (nullopt restores the
  /// honest computation). Exists so freeze-oracle self-tests can plant a
  /// manager that answers while it should be frozen, or reports unfrozen
  /// while a peer is long silent, and prove the oracle catches both.
  void debug_override_frozen(std::optional<bool> forced) {
    debug_frozen_ = forced;
  }
  /// Whether this manager is synced (false while recovering).
  [[nodiscard]] bool synced(AppId app) const;

  /// Per-peer silence on this manager's local clock (freeze diagnostics; the
  /// oracle's premature-unfreeze check reads it). `tracked == false` means
  /// the peer is in Managers(app) but missing from the silence bookkeeping —
  /// itself a freeze bug, since an untracked peer can never freeze us.
  struct PeerSilence {
    HostId peer{};
    bool tracked = false;
    sim::Duration silence{};
  };
  [[nodiscard]] std::vector<PeerSilence> peer_silences(AppId app) const;

  // --- compromise injection (chaos harness) --------------------------------
  // A Byzantine manager keeps its pre-flip store but stops cooperating:
  //  * host check queries get stale or inverted grant/deny answers (or
  //    silence), all derived from the frozen store — the trust model signs
  //    ACL updates at the admin, so a liar can misreport rights it holds but
  //    cannot fabricate versions it never saw;
  //  * peer updates are dropped, or mis-acked with a mangled txn id the
  //    issuer will not recognize — a liar never counts toward update quorums;
  //  * version reads and recovery syncs from peers go unanswered, keeping
  //    manager-side quorums all-honest;
  //  * admin submits THROUGH the compromised manager park exactly like
  //    submits on an unsynced one, and release on restore.
  // All lie choices are deterministic in `lie_seed`.

  /// How a Byzantine manager answers host check queries. kSeeded mixes the
  /// others pseudo-randomly; the fixed modes exist for deterministic tests.
  enum class LieMode : std::uint8_t {
    kSeeded,      ///< draw silent/stale/invert per query from lie_seed
    kStale,       ///< answer honestly from the frozen (stale) store
    kInvert,      ///< flip the use right, version kept from the store
    kSilent,      ///< never answer
    kHugeExpiry,  ///< stale answer advertising a 64x expiry period
  };

  void set_byzantine(std::uint64_t lie_seed, LieMode mode = LieMode::kSeeded);
  /// Back to honest operation with whatever (stale) store survived; parked
  /// submits are released. State is kept — this is remediation, not
  /// reimaging (crash()/recover() models the latter and also clears the flag).
  void restore_honest();
  [[nodiscard]] bool byzantine() const noexcept { return byzantine_; }

  /// One record per QueryResponse this manager actually sends (honest or
  /// lying); the freeze oracle audits answered-while-frozen through it.
  struct QueryAnswerEvent {
    AppId app{};
    UserId user{};
    HostId host{};  ///< the asking host
    acl::Version version{};
    bool frozen_by_silence = false;  ///< honest §3.3 reading at send time
    bool synced = true;
    bool byzantine = false;
  };
  void set_response_observer(std::function<void(const QueryAnswerEvent&)> obs) {
    response_observer_ = std::move(obs);
  }

  [[nodiscard]] const acl::AclStore* store(AppId app) const;

  /// Hosts currently in the grant table for (app, user) — test/diag hook.
  [[nodiscard]] std::vector<HostId> granted_hosts(AppId app, UserId user) const;

  /// Count of in-flight originated updates (diagnostics).
  [[nodiscard]] std::size_t inflight_updates(AppId app) const;

  // --- sharding (shard/shard_map.hpp) --------------------------------------
  // A sharded manager runs the unmodified protocol inside its own group (its
  // AppCtl.managers IS the group), and the map adds exactly two things on
  // top: ownership gating — queries, submits, and peer updates for keys
  // outside the shards this group owns are refused or ack'd-without-apply,
  // so a stale router times out into a deny (the safe direction) — and the
  // catch-up-then-flip handoff below, which moves a shard's ACL slice to its
  // next owner group while reads and writes stay on the old owner until
  // commit.

  /// Installs `map` as the app's current shard map (deployment setup, or the
  /// receive side of a committed rebalance). Does not touch group
  /// membership: groups are fixed, they only enter or leave the map. The map
  /// survives crash() like the name-service record it mirrors — it is
  /// distribution state, not protocol state.
  void set_shard_map(AppId app, shard::ShardMap map);

  /// The current map (empty map if none installed / app unknown).
  [[nodiscard]] const shard::ShardMap* shard_map(AppId app) const;

  /// Old-owner side of a rebalance: for every shard this manager holds today
  /// that `next` assigns to a different group, start streaming the slice
  /// (Begin + Chunk series keyed by a content hash) to every member of the
  /// next owner group, re-snapshotting and re-sending on each retransmit
  /// period until each destination acks the series it currently advertises.
  /// Reads and writes keep landing here until commit_shard_map().
  void begin_shard_handoff(AppId app, const shard::ShardMap& next);

  /// True when every outgoing handoff series has been acked by every
  /// destination AND still matches the live slice (no write raced the last
  /// snapshot). The rebalance coordinator polls this and must call
  /// commit_shard_map() in the same scheduler event that observed true —
  /// that atomicity is what makes the flip race-free in the simulator.
  [[nodiscard]] bool handoff_drained(AppId app) const;

  /// Flips to `next`: adopts the map, merges staged slices for shards this
  /// group gained (gated on complete series from a quorum of old-owner
  /// members — quorum intersection carries every completed update), drops
  /// slices and grant-table entries for shards it lost, and force-compacts
  /// the journal so dropped registers cannot resurrect on replay. Grant
  /// tables are deliberately NOT transferred: cache expiry (te) bounds every
  /// grant the old owner issued, so the Te revocation bound holds across the
  /// flip without them.
  void commit_shard_map(AppId app, shard::ShardMap next);

  /// Abandons an in-progress rebalance: outgoing handoffs stop, staged
  /// slices are discarded, the current map stays authoritative.
  void abort_shard_handoff(AppId app);

  /// Sends the CURRENT map as a ShardMapAnnounce to `recipients` (the
  /// coordinator's post-commit distribution step; receivers apply epoch
  /// discipline).
  void announce_shard_map(AppId app, const std::vector<HostId>& recipients);

  /// Shards this group owns under the current map but cannot answer for yet
  /// (flipped before enough complete handoff series arrived). Queries for
  /// them are refused — deny by timeout — until the series count is met.
  [[nodiscard]] std::size_t pending_shards(AppId app) const;

  /// Shards with a staged (received but not yet activated) inbound slice.
  /// Test observability: after a shard activates or is adopted, stragglers
  /// must not recreate staging — a non-zero count at quiescence is a leak.
  [[nodiscard]] std::size_t staged_shards(AppId app) const;
  /// Inbound handoff series still tracked, across all shards and senders
  /// (same quiescence expectation as staged_shards()).
  [[nodiscard]] std::size_t tracked_handoff_series(AppId app) const;

  /// Host queries refused because the key's shard is not owned here.
  [[nodiscard]] std::uint64_t queries_refused_unowned() const noexcept {
    return queries_refused_unowned_;
  }
  /// Submits refused for the same reason (caller routed with a stale map).
  [[nodiscard]] std::uint64_t submits_refused_unowned() const noexcept {
    return submits_refused_unowned_;
  }
  /// ACL entries this manager has sent in SyncResponse messages — the
  /// resync-scoping regression tests pin this (a sync must transfer the
  /// requester's owned slice, not the whole store).
  [[nodiscard]] std::uint64_t sync_entries_sent() const noexcept {
    return sync_entries_sent_;
  }
  /// Revocations still fanning out (all apps) — owned by the configured
  /// dissemination strategy (proto/dissemination.hpp).
  [[nodiscard]] std::size_t inflight_revocations() const {
    return disseminator_->inflight();
  }

 private:
  struct PendingRead {
    acl::Op op = acl::Op::kAdd;
    UserId user{};
    acl::Right right = acl::Right::kUse;
    UpdateCallback done;
    sim::TimePoint issued{};
    quorum::QuorumTracker readers;
    acl::Version max_seen{};
    obs::TraceId trace = 0;  ///< the update's causal chain (minted at submit)
    runtime::Timer retry;

    PendingRead(int quorum, runtime::Env& env)
        : readers(quorum), retry(env.make_timer()) {}
  };

  struct Txn {
    acl::AclUpdate update{};
    std::uint64_t txn_id = 0;
    sim::TimePoint issued{};
    quorum::QuorumTracker acks;
    std::set<HostId> pending_peers;
    UpdateCallback done;
    bool quorum_fired = false;
    obs::TraceId trace = 0;  ///< inherited from the PendingRead
    runtime::Timer retry;

    Txn(int quorum, runtime::Env& env) : acks(quorum), retry(env.make_timer()) {}
  };

  struct DeferredSubmit {
    acl::Op op = acl::Op::kAdd;
    UserId user{};
    acl::Right right = acl::Right::kUse;
    UpdateCallback done;
  };

  /// One outgoing handoff: this manager streaming one shard's slice to the
  /// members of its next owner group. `series` is the content hash of
  /// `slice`; a write racing the handoff changes the hash, which resets the
  /// ack set and resends — so an acked series always names exactly the bytes
  /// the destination holds. After commit the slice leaves the store and the
  /// snapshot freezes; retransmission continues until every destination
  /// acks, then the record retires.
  struct HandoffOut {
    std::uint32_t shard = 0;
    std::uint64_t epoch = 0;  ///< the PROPOSED map's epoch
    std::uint64_t series = 0;
    std::vector<acl::AclUpdate> slice;
    std::set<HostId> dests;
    std::set<HostId> acked;  ///< dests that acked the current series
    bool frozen = false;     ///< post-commit: stop re-snapshotting
    runtime::Timer retry;

    explicit HandoffOut(runtime::Env& env) : retry(env.make_timer()) {}
  };

  /// One incoming handoff series from one old-owner member. Chunks merge
  /// into the per-shard staging store as they land (idempotent LWW, so
  /// redelivery and series restarts are harmless); completeness is tracked
  /// per sender because the flip requires complete series from a QUORUM of
  /// distinct old-owner members before the staged slice may answer queries.
  struct HandoffIn {
    std::uint64_t epoch = 0;
    std::uint64_t series = 0;
    std::uint32_t total = 0;
    std::set<std::uint32_t> received;  ///< chunk seqs of the current series
    bool complete = false;
  };

  /// A gained shard awaiting its transfer quorum: how many complete series
  /// are still required, the epoch of the rebalance that moved the shard
  /// here, and the members of its OLD owner group — the only hosts whose
  /// series count toward `need`. Without the epoch/sender filter, a
  /// complete series left over from an earlier rebalance (a shard that
  /// bounced away and back) would satisfy the quorum instantly and activate
  /// the shard around the real transfer, voiding the quorum-intersection
  /// guarantee the flip rests on.
  struct PendingAcquire {
    int need = 0;
    std::uint64_t epoch = 0;
    std::set<HostId> senders;
    sim::TimePoint begun{};  ///< commit time; activation latency is measured
                             ///< from here into wan_shard_handoff_seconds
  };

  struct AppCtl;

  [[nodiscard]] bool owns_key(const AppCtl& ctl, AppId app,
                              UserId user) const;

  struct AppCtl {
    std::vector<HostId> managers;  ///< full set, incl. self
    std::vector<HostId> peers;     ///< managers minus self
    int check_quorum = 1;
    acl::AclStore store;
    std::map<UserId, std::set<HostId>> grant_table;
    std::unordered_map<std::uint64_t, std::unique_ptr<PendingRead>> reads;
    std::unordered_map<std::uint64_t, std::unique_ptr<Txn>> txns;
    std::unordered_map<HostId, clk::LocalTime> last_heard;  ///< freeze input
    bool synced = true;
    /// Operations submitted while recovering (§3.4: an unsynced manager can
    /// vouch for nothing, not even its own version floor); issued in order
    /// once the sync completes. The paper's blocking call simply waits.
    std::vector<DeferredSubmit> deferred_submits;
    std::uint64_t sync_id = 0;
    std::unique_ptr<quorum::QuorumTracker> sync_votes;
    std::unique_ptr<runtime::Timer> sync_timer;
    std::unique_ptr<runtime::PeriodicTimer> heartbeat;
    std::uint64_t heartbeat_seq = 0;
    /// Current shard map (empty = flat). Survives crash() — see
    /// set_shard_map().
    shard::ShardMap shard_map;
    /// The map a begin_shard_handoff() is migrating toward; defines shard
    /// numbering for slice re-snapshots. Cleared at commit/abort.
    std::optional<shard::ShardMap> proposed;
    /// Outgoing handoffs by shard (this manager is an old owner).
    std::map<std::uint32_t, std::unique_ptr<HandoffOut>> handoffs_out;
    /// Incoming handoff series by (shard, sender).
    std::map<std::pair<std::uint32_t, HostId>, HandoffIn> handoffs_in;
    /// Staged slices by shard — merged into the store only at activation,
    /// never consulted by queries, discarded on abort.
    std::map<std::uint32_t, acl::AclStore> staging;
    /// Gained shards awaiting enough complete series. Queries for these
    /// shards are refused.
    std::map<std::uint32_t, PendingAcquire> pending_acquire;
    /// Set by recover(): the in-flight sync is a crash recovery, so its
    /// completion (a quorum of group peers vouching for their stores) may
    /// adopt the group's state for shards stuck in pending_acquire whose
    /// senders retired against acks the crash erased.
    bool sync_adopts_pending = false;
    /// Delta-sync apply log (config.dissemination.delta_sync): the tail of
    /// updates applied to the store, in apply order. A recovering peer
    /// presenting a cursor inside [log_floor, next_apply_seq] under the
    /// current log_epoch gets just the suffix; anything else (epoch
    /// mismatch, cursor older than the capped log) falls back to a full
    /// snapshot. Volatile — cleared with the store on crash().
    std::deque<acl::AclUpdate> apply_log;
    std::uint64_t log_floor = 0;       ///< apply seq of apply_log.front()
    std::uint64_t next_apply_seq = 0;  ///< seq the next applied update gets
    /// Identifies one incarnation of this manager's apply log; a cursor is
    /// only meaningful under the epoch it was handed out with. Re-minted by
    /// mint_log_epoch() whenever the log restarts (manage_app, recover).
    std::uint64_t log_epoch = 0;
    /// Requester-side cursors: the (log_epoch, next_seq) each peer reported
    /// in its last DeltaSyncResponse. Cleared on crash() — a recovering
    /// manager's store is empty, so a suffix cannot reconstruct it.
    std::map<HostId, std::pair<std::uint64_t, std::uint64_t>> sync_cursors;
  };

  void handle_query(HostId from, const QueryRequest& q);
  void byzantine_on_message(HostId from, const net::MessagePtr& msg);
  void byzantine_answer_query(HostId from, const QueryRequest& q);
  void flush_deferred_submits();
  void handle_version_reply(HostId from, const VersionReply& m);
  void retransmit_read(AppId app, std::uint64_t read_id);
  void issue_write(AppId app, std::unique_ptr<PendingRead> read);
  void handle_update(HostId from, const UpdateMsg& m);
  void handle_update_ack(HostId from, const UpdateAck& m);
  void handle_sync_request(HostId from, const SyncRequest& m);
  void handle_sync_response(HostId from, const SyncResponse& m);
  void handle_sync_push(HostId from, const SyncPush& m);
  void handle_delta_sync_request(HostId from, const DeltaSyncRequest& m);
  void handle_delta_sync_response(HostId from, const DeltaSyncResponse& m);
  /// Records a sync vote from `from`; on quorum, completes the recovery
  /// (shared tail of handle_sync_response / handle_delta_sync_response).
  void record_sync_vote(AppId app, AppCtl& ctl, HostId from);
  void push_snapshot(AppId app, AppCtl& ctl);

  void handle_shard_map_announce(HostId from, const ShardMapAnnounce& m);
  void handle_handoff_begin(HostId from, const ShardHandoffBegin& m);
  void handle_handoff_chunk(HostId from, const ShardHandoffChunk& m);
  void handle_handoff_done(HostId from, const ShardHandoffDone& m);
  /// One retransmit round of an outgoing handoff: re-snapshot the slice
  /// (unless frozen), restart the series if it changed, send Begin + all
  /// chunks to every destination that has not acked the current series.
  void handoff_round(AppId app, std::uint32_t shard);
  void send_handoff_series(AppId app, const AppCtl& ctl, const HandoffOut& h);
  /// Slice predicate under `map` for shard `s` (which users belong to it).
  [[nodiscard]] std::vector<acl::AclUpdate> slice_snapshot(
      const AppCtl& ctl, AppId app, const shard::ShardMap& map,
      std::uint32_t shard) const;
  /// Count of distinct ELIGIBLE senders — old-owner-group members whose
  /// complete series carries the committed rebalance's epoch — for `shard`.
  [[nodiscard]] static std::size_t complete_senders(const AppCtl& ctl,
                                                    std::uint32_t shard);
  /// If `shard` is pending and enough complete series arrived, merge the
  /// staged slice into the live store and open the shard for queries.
  void maybe_activate_shard(AppId app, AppCtl& ctl, std::uint32_t shard);
  /// Drops every inbound-handoff record and the staged slice for `shard` —
  /// at activation, when the shard is lost, or when recovery adopts it.
  static void drop_handoff_in(AppCtl& ctl, std::uint32_t shard);
  /// Crash-recovery exit for stuck acquisitions: once a quorum of group
  /// peers vouched for their stores, adopt that state for every shard still
  /// in pending_acquire (see handle_sync_response).
  void adopt_pending_shards(AppId app, AppCtl& ctl);
  /// Whether cross-group shard traffic from `from` is trustworthy: a member
  /// of the current map (old and new owners both are — joining groups get
  /// the pre-rebalance map installed before handoff), falling back to
  /// is_peer when no map is installed.
  [[nodiscard]] bool shard_sender_ok(const AppCtl& ctl, HostId from) const;

  void start_revoke_forwarding(AppId app, AppCtl& ctl, UserId user,
                               acl::Version version, obs::TraceId trace);
  void retransmit_txn(AppId app, std::uint64_t txn_id);
  // Disseminator::Sink — the strategy's way back into the manager.
  void send(HostId to, const net::MessagePtr& msg) override;
  void delivered(AppId app, HostId host, UserId user,
                 acl::Version version) override;
  /// Starts a fresh apply-log incarnation for `ctl` (new epoch, empty log).
  void mint_log_epoch(AppCtl& ctl);
  /// Appends an APPLIED update to the delta-sync log (capped; advancing the
  /// floor past a compaction point forces stale cursors to full snapshots).
  void log_applied(AppCtl& ctl, const acl::AclUpdate& update);
  /// The journaled mutation path: AclStore::apply plus, when a journal is
  /// attached and the update changed a register, a durable append (and a
  /// compaction check). Every store mutation site routes through this or
  /// merge_snapshot() so durable state can never miss an applied update.
  bool apply_update(AppId app, AppCtl& ctl, const acl::AclUpdate& update);
  /// Journaled AclStore::merge (a merge is a loop of applies); returns the
  /// number of registers changed.
  std::size_t merge_snapshot(AppId app, AppCtl& ctl,
                             const std::vector<acl::AclUpdate>& snapshot);
  void maybe_compact(AppId app, AppCtl& ctl);

  void begin_sync(AppId app, AppCtl& ctl);
  void sync_round(AppId app);
  void start_heartbeats(AppId app, AppCtl& ctl);
  void note_peer(AppCtl& ctl, HostId peer);
  /// Manager-to-manager messages are only honoured from genuine peers (the
  /// paper's model authenticates manager traffic; crash-only managers never
  /// lie, so anything else claiming to be one is an outsider).
  [[nodiscard]] static bool is_peer(const AppCtl& ctl, HostId from) noexcept;
  [[nodiscard]] int update_quorum(const AppCtl& ctl) const noexcept {
    return static_cast<int>(ctl.managers.size()) - ctl.check_quorum + 1;
  }
  [[nodiscard]] clk::LocalTime local_now() const {
    return clock_.local_now();
  }

  AppCtl* ctl_of(AppId app);
  const AppCtl* ctl_of(AppId app) const;

  HostId self_;
  runtime::Env& env_;
  runtime::Transport& net_;
  runtime::Clock clock_;
  ProtocolConfig config_;
  bool up_ = true;
  bool byzantine_ = false;
  ManagerJournal* journal_ = nullptr;  ///< non-owning; nullptr == volatile
  LieMode lie_mode_ = LieMode::kSeeded;
  Rng lie_rng_{0};
  /// Revocation fan-out strategy (built from config_.dissemination; owns all
  /// in-flight revoke state, which crash() drops via shutdown()).
  std::unique_ptr<Disseminator> disseminator_;
  std::uint64_t log_epoch_salt_ = 0;  ///< per-incarnation epoch tie-breaker
  std::optional<bool> debug_frozen_;
  std::function<void(const QueryAnswerEvent&)> response_observer_;

  std::map<AppId, AppCtl> apps_;
  /// Floor for version issue stamps: strictly increasing per issued update
  /// and across crash/recover. Deliberately NOT wiped by crash() — it stands
  /// in for the local hardware clock, which keeps ticking through a crash
  /// (the same property LocalClock has; the floor only adds tie-breaking for
  /// same-instant issues).
  std::int64_t version_stamp_ = 0;
  std::uint64_t next_txn_id_ = 1;
  std::uint64_t next_sync_id_ = 1;
  std::uint64_t next_read_id_ = 1;
  std::uint64_t queries_refused_unowned_ = 0;
  std::uint64_t submits_refused_unowned_ = 0;
  std::uint64_t sync_entries_sent_ = 0;
  // Minted unconditionally so message-borne trace ids never depend on whether
  // a tracer is installed (traced/untraced runs stay bit-identical).
  std::uint32_t next_trace_seq_ = 1;
};

}  // namespace wan::proto
