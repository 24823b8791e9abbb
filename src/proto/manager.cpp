#include "proto/manager.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/journal.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace wan::proto {

namespace {

// "update.quorum" / "update.submit" span arg: op in a1 (1 = revoke), shared
// with obs::TeProbe::analyze.
std::int64_t op_arg(acl::Op op) { return op == acl::Op::kRevoke ? 1 : 0; }

obs::Counter& update_quorum_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_update_quorums_total");
  return c;
}

// Seed of the handoff series hash — a content hash over a slice snapshot in
// its deterministic snapshot() order, so two managers holding identical
// slices advertise identical series without exchanging a byte.
constexpr std::uint64_t kSeriesSeed = 0x5348414e444f4646ULL;  // "SHANDOFF"

// Updates per ShardHandoffChunk: 512 × 30-byte updates + the 48-byte chunk
// header stays far under kMaxFrameSize, so chunks survive the UDP transport.
constexpr std::size_t kHandoffChunkUpdates = 512;

std::uint64_t slice_series(const std::vector<acl::AclUpdate>& slice) {
  std::uint64_t h = stable_hash64(kSeriesSeed, slice.size());
  for (const acl::AclUpdate& u : slice) {
    h = stable_hash64(h, u.user.value());
    h = stable_hash64(h, (static_cast<std::uint64_t>(u.right) << 8) |
                             static_cast<std::uint64_t>(u.op));
    h = stable_hash64(h, u.version.counter);
    h = stable_hash64(h, u.version.origin.value());
    h = stable_hash64(h, static_cast<std::uint64_t>(u.version.stamp));
  }
  return h;
}

}  // namespace

ManagerModule::ManagerModule(HostId self, runtime::Env& env,
                             clk::LocalClock clock, ProtocolConfig config)
    : self_(self),
      env_(env),
      net_(env.transport()),
      clock_(env, clock),
      config_(config) {
  config_.validate();
  disseminator_ =
      make_disseminator(config_.dissemination, self_, env_, config_.Te,
                        config_.revoke_retransmit, *this);
}

ManagerModule::~ManagerModule() = default;

ManagerModule::AppCtl* ManagerModule::ctl_of(AppId app) {
  const auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second;
}

const ManagerModule::AppCtl* ManagerModule::ctl_of(AppId app) const {
  const auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second;
}

void ManagerModule::manage_app(AppId app, std::vector<HostId> managers) {
  WAN_REQUIRE(app.valid());
  WAN_REQUIRE(std::find(managers.begin(), managers.end(), self_) != managers.end());
  WAN_REQUIRE(config_.check_quorum <= static_cast<int>(managers.size()));
  AppCtl& ctl = apps_[app];
  ctl.managers = std::move(managers);
  ctl.peers.clear();
  for (const HostId m : ctl.managers) {
    if (m != self_) ctl.peers.push_back(m);
  }
  ctl.check_quorum = config_.check_quorum;
  mint_log_epoch(ctl);
  const clk::LocalTime now = local_now();
  for (const HostId p : ctl.peers) ctl.last_heard[p] = now;
  if (config_.freeze_enabled) start_heartbeats(app, ctl);
}

void ManagerModule::reconfigure_app(AppId app, std::vector<HostId> managers) {
  WAN_REQUIRE(std::find(managers.begin(), managers.end(), self_) !=
              managers.end());
  const bool newcomer = ctl_of(app) == nullptr;
  if (newcomer) {
    manage_app(app, std::move(managers));
    AppCtl& ctl = apps_[app];
    begin_sync(app, ctl);  // do not answer queries until caught up
    return;
  }
  AppCtl& ctl = apps_[app];
  ctl.managers = std::move(managers);
  ctl.peers.clear();
  for (const HostId m : ctl.managers) {
    if (m != self_) ctl.peers.push_back(m);
  }
  // Refresh freeze bookkeeping: drop departed peers, adopt new ones as
  // just-heard (they get a full Ti before they can freeze us).
  const clk::LocalTime now = local_now();
  std::unordered_map<HostId, clk::LocalTime> heard;
  for (const HostId p : ctl.peers) {
    const auto it = ctl.last_heard.find(p);
    heard[p] = it != ctl.last_heard.end() ? it->second : now;
  }
  ctl.last_heard = std::move(heard);
  // Departed peers will never ack: prune them from in-flight work so
  // transactions can complete (or retire) against the new membership.
  for (auto it = ctl.txns.begin(); it != ctl.txns.end();) {
    Txn& txn = *it->second;
    for (auto p = txn.pending_peers.begin(); p != txn.pending_peers.end();) {
      p = is_peer(ctl, *p) ? std::next(p) : txn.pending_peers.erase(p);
    }
    it = txn.pending_peers.empty() ? ctl.txns.erase(it) : std::next(it);
  }
}

void ManagerModule::forget_app(AppId app) {
  disseminator_->drop_app(app);
  apps_.erase(app);
}

void ManagerModule::start_heartbeats(AppId app, AppCtl& ctl) {
  ctl.heartbeat = std::make_unique<runtime::PeriodicTimer>(env_.make_periodic_timer());
  ctl.heartbeat->start(config_.heartbeat_period, [this, app] {
    AppCtl* ctl = ctl_of(app);
    if (ctl == nullptr || !up_) return;
    const auto ping =
        net::make_message<HeartbeatPing>(app, ++ctl->heartbeat_seq);
    for (const HostId p : ctl->peers) net_.send(self_, p, ping);
  });
}

bool ManagerModule::is_peer(const AppCtl& ctl, HostId from) noexcept {
  return std::find(ctl.peers.begin(), ctl.peers.end(), from) != ctl.peers.end();
}

void ManagerModule::note_peer(AppCtl& ctl, HostId peer) {
  const auto it = ctl.last_heard.find(peer);
  if (it != ctl.last_heard.end()) it->second = local_now();
}

sim::Duration ManagerModule::freeze_threshold() const {
  // Ti is a real-time bound; this clock may run up to b times slow, so the
  // local threshold is Ti / b ("care must be taken to account for clock rate
  // differences at managers", §3.3).
  return sim::Duration::from_seconds(config_.Ti.to_seconds() /
                                     config_.clock_bound_b);
}

bool ManagerModule::frozen_by_silence(AppId app) const {
  if (!config_.freeze_enabled) return false;
  const AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return false;
  const sim::Duration threshold = freeze_threshold();
  const clk::LocalTime now = clock_.local_now();
  for (const auto& [peer, heard] : ctl->last_heard) {
    if (now - heard > threshold) return true;
  }
  return false;
}

bool ManagerModule::frozen(AppId app) const {
  if (debug_frozen_.has_value()) return *debug_frozen_;
  return frozen_by_silence(app);
}

std::vector<ManagerModule::PeerSilence> ManagerModule::peer_silences(
    AppId app) const {
  std::vector<PeerSilence> out;
  const AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return out;
  const clk::LocalTime now = clock_.local_now();
  for (const HostId p : ctl->peers) {
    PeerSilence ps;
    ps.peer = p;
    if (const auto it = ctl->last_heard.find(p); it != ctl->last_heard.end()) {
      ps.tracked = true;
      ps.silence = now - it->second;
    }
    out.push_back(ps);
  }
  return out;
}

bool ManagerModule::synced(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl != nullptr && ctl->synced;
}

const acl::AclStore* ManagerModule::store(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl == nullptr ? nullptr : &ctl->store;
}

std::vector<HostId> ManagerModule::granted_hosts(AppId app, UserId user) const {
  const AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return {};
  const auto it = ctl->grant_table.find(user);
  if (it == ctl->grant_table.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::size_t ManagerModule::inflight_updates(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl == nullptr ? 0 : ctl->txns.size();
}

// ------------------------------------------------------------- operations

void ManagerModule::submit_update(AppId app, acl::Op op, UserId user,
                                  acl::Right right, UpdateCallback done) {
  WAN_REQUIRE(up_);
  AppCtl* ctl = ctl_of(app);
  WAN_REQUIRE(ctl != nullptr);

  // A submit for a key whose shard this group does not own is a routing
  // error (stale map at the caller, or a deferred submit that outlived a
  // rebalance). Refusing — rather than minting an update the owner group
  // would never see — keeps the single-owner invariant; the caller
  // re-resolves and retries against the owner group. A shard gained at a
  // flip but still short of its handoff quorum is refused for the same
  // reason a query is: the pre-activation store is not a valid version
  // floor, and an update minted against it could lose to the staged slice
  // when activation merges it.
  const bool acquiring =
      !ctl->shard_map.trivial() &&
      ctl->pending_acquire.count(ctl->shard_map.shard_of(app, user)) != 0;
  if (!owns_key(*ctl, app, user) || acquiring) {
    ++submits_refused_unowned_;
    static obs::Counter& refused =
        obs::Registry::global().counter("wan_submits_refused_unowned_total");
    refused.inc();
    WAN_DEBUG << to_string(self_) << " refuses unowned submit "
              << acl::to_cstring(op) << "(" << to_string(app) << ","
              << to_string(user) << ")";
    return;
  }

  // While recovering, this manager's store is not a valid version floor: a
  // C == 1 read would complete against the empty store and mint a version
  // that LOSES to every completed update — a revoke issued that way is a
  // silent no-op everywhere (found by chaos seed 645). The paper's blocking
  // Add/Revoke call simply waits for the §3.4 sync to finish. A compromised
  // manager parks submits for the same reason: its frozen store is an equally
  // invalid floor, and the admin's operation must not be minted into a
  // version that loses everywhere.
  if (!ctl->synced || byzantine_) {
    ctl->deferred_submits.push_back(
        DeferredSubmit{op, user, right, std::move(done)});
    return;
  }

  // Phase 1: version read from a check quorum of C managers (self included).
  const int needed = std::min(ctl->check_quorum,
                              static_cast<int>(ctl->managers.size()));
  const std::uint64_t read_id = next_read_id_++;
  auto read = std::make_unique<PendingRead>(needed, env_);
  read->op = op;
  read->user = user;
  read->right = right;
  read->done = std::move(done);
  read->issued = env_.now();
  read->max_seen = ctl->store.max_version();
  read->trace = obs::mint(obs::TraceKind::kUpdate, self_, next_trace_seq_++);
  read->readers.record(self_);
  obs::record(read->trace, obs::SpanKind::kBegin, self_, env_.now(),
              "update.submit", user.value(), op_arg(op));
  static obs::Counter& submits =
      obs::Registry::global().counter("wan_updates_submitted_total");
  submits.inc();
  if (read->readers.reached()) {
    issue_write(app, std::move(read));
    return;
  }
  const obs::TraceId trace = read->trace;
  ctl->reads.emplace(read_id, std::move(read));
  const auto msg = net::make_message<VersionQuery>(app, read_id);
  for (const HostId p : ctl->peers) {
    obs::record(trace, obs::SpanKind::kSend, self_, env_.now(),
                "version.query.send", p.value());
    net_.send(self_, p, msg);
  }
  ctl->reads.at(read_id)->retry.arm(
      config_.update_retransmit,
      [this, app, read_id] { retransmit_read(app, read_id); });
}

void ManagerModule::retransmit_read(AppId app, std::uint64_t read_id) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr || !up_) return;
  const auto it = ctl->reads.find(read_id);
  if (it == ctl->reads.end()) return;
  const auto msg = net::make_message<VersionQuery>(app, read_id);
  for (const HostId p : ctl->peers) {
    if (!it->second->readers.has(p)) net_.send(self_, p, msg);
  }
  it->second->retry.arm(config_.update_retransmit, [this, app, read_id] {
    retransmit_read(app, read_id);
  });
}

void ManagerModule::handle_version_reply(HostId from, const VersionReply& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  const auto it = ctl->reads.find(m.read_id);
  if (it == ctl->reads.end()) return;
  PendingRead& read = *it->second;
  obs::record(read.trace, obs::SpanKind::kRecv, self_, env_.now(),
              "version.reply.recv", from.value(),
              static_cast<std::int64_t>(m.max_version.counter));
  if (m.max_version > read.max_seen) read.max_seen = m.max_version;
  if (!read.readers.record(from)) return;
  auto owned = std::move(it->second);
  ctl->reads.erase(it);
  owned->retry.cancel();
  issue_write(m.app, std::move(owned));
}

void ManagerModule::issue_write(AppId app, std::unique_ptr<PendingRead> read) {
  AppCtl* ctl = ctl_of(app);
  WAN_ASSERT(ctl != nullptr);

  acl::AclUpdate update;
  update.user = read->user;
  update.right = read->right;
  update.op = read->op;
  // Dominates every completed update (via the read quorum) and everything
  // this manager has applied since the read began.
  acl::Version base = read->max_seen;
  if (ctl->store.max_version() > base) base = ctl->store.max_version();
  // The stamp makes a post-crash reissue of an already-used counter compare
  // strictly newer than the lost original (see acl/version.hpp). The local
  // clock is monotone across crashes; the +1 floor only orders same-instant
  // issues within one incarnation and cannot outrun the clock in practice.
  const std::int64_t stamp =
      std::max(version_stamp_ + 1, local_now().nanos());
  version_stamp_ = stamp;
  update.version = base.next(self_, stamp);
  apply_update(app, *ctl, update);

  const acl::Op op = read->op;
  const UserId user = read->user;
  UpdateCallback done = std::move(read->done);
  const std::uint64_t txn_id = next_txn_id_++;
  auto txn = std::make_unique<Txn>(update_quorum(*ctl), env_);
  txn->update = update;
  txn->txn_id = txn_id;
  txn->issued = read->issued;  // the user's operation began at the read
  txn->done = std::move(done);
  txn->trace = read->trace;
  txn->acks.record(self_);  // the issuer counts toward the update quorum
  for (const HostId p : ctl->peers) txn->pending_peers.insert(p);
  obs::record(txn->trace, obs::SpanKind::kInstant, self_, env_.now(),
              "update.issue", user.value(),
              static_cast<std::int64_t>(update.version.counter));

  WAN_DEBUG << to_string(self_) << " issues " << acl::to_cstring(op) << "("
            << to_string(app) << "," << to_string(user) << ") v"
            << update.version.counter;

  Txn& ref = *txn;
  ctl->txns.emplace(txn_id, std::move(txn));

  if (op == acl::Op::kRevoke) {
    start_revoke_forwarding(app, *ctl, user, update.version, ref.trace);
  }

  if (ref.acks.reached() && !ref.quorum_fired) {
    // Update quorum of 1 (C == M): guaranteed as soon as it is local.
    ref.quorum_fired = true;
    obs::record(ref.trace, obs::SpanKind::kDecision, self_, env_.now(),
                "update.quorum", user.value(), op_arg(op));
    update_quorum_counter().inc();
    if (ref.done) {
      ref.done(UpdateOutcome{app, ref.update, ref.issued, env_.now(),
                             ref.acks.count()});
    }
  }

  if (ref.pending_peers.empty()) {
    ctl->txns.erase(txn_id);
    return;
  }
  const auto msg = net::make_message<UpdateMsg>(app, update, txn_id, ref.trace);
  for (const HostId p : ref.pending_peers) {
    obs::record(ref.trace, obs::SpanKind::kSend, self_, env_.now(),
                "update.send", p.value());
    net_.send(self_, p, msg);
  }
  ref.retry.arm(config_.update_retransmit,
                [this, app, txn_id] { retransmit_txn(app, txn_id); });
}

void ManagerModule::retransmit_txn(AppId app, std::uint64_t txn_id) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr || !up_) return;
  const auto it = ctl->txns.find(txn_id);
  if (it == ctl->txns.end()) return;
  Txn& txn = *it->second;
  // "A manager issuing an update uses a persistent strategy ... it repeatedly
  // transmits the update to every manager until it succeeds."
  obs::record(txn.trace, obs::SpanKind::kTimer, self_, env_.now(),
              "update.retransmit",
              static_cast<std::int64_t>(txn.pending_peers.size()));
  static obs::Counter& retx =
      obs::Registry::global().counter("wan_update_retransmits_total");
  retx.inc();
  const auto msg = net::make_message<UpdateMsg>(app, txn.update, txn_id,
                                                txn.trace);
  for (const HostId p : txn.pending_peers) net_.send(self_, p, msg);
  txn.retry.arm(config_.update_retransmit,
                [this, app, txn_id] { retransmit_txn(app, txn_id); });
}

void ManagerModule::start_revoke_forwarding(AppId app, AppCtl& ctl, UserId user,
                                            acl::Version version,
                                            obs::TraceId trace) {
  // The grant table stays the manager's: the strategy is handed the row and
  // reports per-host delivery back through Sink::delivered.
  const auto git = ctl.grant_table.find(user);
  if (git == ctl.grant_table.end() || git->second.empty()) return;
  disseminator_->revoke(app, user, version, git->second, trace);
}

// Disseminator::Sink -------------------------------------------------------

void ManagerModule::send(HostId to, const net::MessagePtr& msg) {
  net_.send(self_, to, msg);
}

void ManagerModule::delivered(AppId app, HostId host, UserId user,
                              acl::Version /*version*/) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return;
  // The host flushed its cache; it no longer holds a grant from us.
  if (auto git = ctl->grant_table.find(user); git != ctl->grant_table.end()) {
    git->second.erase(host);
  }
}

// --------------------------------------------------------------- receive

void ManagerModule::on_message(HostId from, const net::MessagePtr& msg) {
  if (!up_) return;
  if (byzantine_) {
    byzantine_on_message(from, msg);
    return;
  }
  if (const auto* q = net::message_cast<QueryRequest>(msg)) {
    handle_query(from, *q);
  } else if (const auto* u = net::message_cast<UpdateMsg>(msg)) {
    handle_update(from, *u);
  } else if (const auto* a = net::message_cast<UpdateAck>(msg)) {
    handle_update_ack(from, *a);
  } else if (disseminator_->on_message(from, msg)) {
    // Revocation fan-out acks (RevokeNotifyAck / RevokeBatchAck / RelayAck):
    // consumed by the dissemination strategy, which reports per-host
    // delivery back through Sink::delivered.
  } else if (const auto* vq = net::message_cast<VersionQuery>(msg)) {
    if (AppCtl* ctl = ctl_of(vq->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
      // An unsynced (recovering) manager cannot vouch for a version floor.
      if (ctl->synced) {
        net_.send(self_, from,
                  net::make_message<VersionReply>(vq->app, vq->read_id,
                                                  ctl->store.max_version()));
      }
    }
  } else if (const auto* vr = net::message_cast<VersionReply>(msg)) {
    handle_version_reply(from, *vr);
  } else if (const auto* s = net::message_cast<SyncRequest>(msg)) {
    handle_sync_request(from, *s);
  } else if (const auto* sr = net::message_cast<SyncResponse>(msg)) {
    handle_sync_response(from, *sr);
  } else if (const auto* sp = net::message_cast<SyncPush>(msg)) {
    handle_sync_push(from, *sp);
  } else if (const auto* dq = net::message_cast<DeltaSyncRequest>(msg)) {
    handle_delta_sync_request(from, *dq);
  } else if (const auto* dr = net::message_cast<DeltaSyncResponse>(msg)) {
    handle_delta_sync_response(from, *dr);
  } else if (const auto* sa = net::message_cast<ShardMapAnnounce>(msg)) {
    handle_shard_map_announce(from, *sa);
  } else if (const auto* hb = net::message_cast<ShardHandoffBegin>(msg)) {
    handle_handoff_begin(from, *hb);
  } else if (const auto* hc = net::message_cast<ShardHandoffChunk>(msg)) {
    handle_handoff_chunk(from, *hc);
  } else if (const auto* hd = net::message_cast<ShardHandoffDone>(msg)) {
    handle_handoff_done(from, *hd);
  } else if (const auto* ping = net::message_cast<HeartbeatPing>(msg)) {
    if (AppCtl* ctl = ctl_of(ping->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
      net_.send(self_, from,
                net::make_message<HeartbeatPong>(ping->app, ping->seq));
    }
  } else if (const auto* pong = net::message_cast<HeartbeatPong>(msg)) {
    if (AppCtl* ctl = ctl_of(pong->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
    }
  }
}

void ManagerModule::handle_query(HostId from, const QueryRequest& q) {
  AppCtl* ctl = ctl_of(q.app);
  if (ctl == nullptr) return;
  // Ownership gate: a key outside this group's shards — or inside a shard
  // gained at a flip that is still waiting for its quorum of handoff series —
  // gets no answer. The host times out and denies, which is the safe
  // direction: an unowned store could only vouch for a stale slice, and a
  // grant from it could outlive a revocation the true owner completed.
  if (!ctl->shard_map.trivial()) {
    const bool owned = owns_key(*ctl, q.app, q.user);
    const bool acquiring =
        owned && ctl->pending_acquire.count(
                     ctl->shard_map.shard_of(q.app, q.user)) != 0;
    if (!owned || acquiring) {
      ++queries_refused_unowned_;
      static obs::Counter& refused = obs::Registry::global().counter(
          "wan_queries_refused_unowned_total");
      refused.inc();
      obs::record(q.trace, obs::SpanKind::kInstant, self_, env_.now(),
                  "query.refuse.unowned", from.value(), owned ? 1 : 0);
      return;
    }
  }
  // A recovering manager answers nothing until synced (§3.4); a frozen one
  // answers nothing until all peers are reachable again (§3.3).
  if (!ctl->synced || frozen(q.app)) {
    obs::record(q.trace, obs::SpanKind::kInstant, self_, env_.now(),
                "query.refuse", from.value(), ctl->synced ? 1 : 0);
    static obs::Counter& refused =
        obs::Registry::global().counter("wan_queries_refused_total");
    refused.inc();
    return;
  }

  const acl::RightSet rights = ctl->store.rights_of(q.user);
  // The decision-relevant version is the "use" register's: a fresher write to
  // the unrelated "manage" register must not let stale use-rights win a
  // freshest-response race at the host.
  acl::Version version{};
  if (const auto st = ctl->store.state(q.user, acl::Right::kUse)) {
    version = st->version;
  }
  if (response_observer_) {
    response_observer_(QueryAnswerEvent{q.app, q.user, from, version,
                                        frozen_by_silence(q.app), ctl->synced,
                                        /*byzantine=*/false});
  }
  obs::record(q.trace, obs::SpanKind::kSend, self_, env_.now(), "query.answer",
              from.value(), static_cast<std::int64_t>(version.counter));
  static obs::Counter& answered =
      obs::Registry::global().counter("wan_queries_answered_total");
  answered.inc();
  net_.send(self_, from,
            net::make_message<QueryResponse>(q.app, q.user, q.query_id, rights,
                                             version, config_.expiry_period(),
                                             q.trace));
  if (rights.has(acl::Right::kUse)) {
    // Remember who holds cached rights so revocations can be forwarded.
    ctl->grant_table[q.user].insert(from);
  }
}

// ----------------------------------------------------- byzantine behaviour

void ManagerModule::set_byzantine(std::uint64_t lie_seed, LieMode mode) {
  WAN_REQUIRE(up_);
  byzantine_ = true;
  lie_mode_ = mode;
  lie_rng_ = Rng(lie_seed);
}

void ManagerModule::restore_honest() {
  if (!byzantine_) return;
  byzantine_ = false;
  // Operations parked during the compromise window resume exactly like
  // operations parked during a recovery sync.
  flush_deferred_submits();
}

void ManagerModule::flush_deferred_submits() {
  for (auto& [app, ctl] : apps_) {
    if (!ctl.synced) continue;  // still parked for the §3.4 reason
    std::vector<DeferredSubmit> parked;
    parked.swap(ctl.deferred_submits);
    for (DeferredSubmit& s : parked) {
      submit_update(app, s.op, s.user, s.right, std::move(s.done));
    }
  }
}

void ManagerModule::byzantine_on_message(HostId from, const net::MessagePtr& msg) {
  if (const auto* q = net::message_cast<QueryRequest>(msg)) {
    byzantine_answer_query(from, *q);
    return;
  }
  if (const auto* u = net::message_cast<UpdateMsg>(msg)) {
    // Never apply the update (the store stays frozen at its pre-flip state),
    // and never send a usable ack. Half the time, mis-ack with a mangled txn
    // id: the issuer's lookup misses, so the liar can neither stall the
    // quorum nor count toward it — exactly the "at most f liars are outside
    // every update quorum" premise byzantine_slack relies on.
    AppCtl* ctl = ctl_of(u->app);
    if (ctl != nullptr && is_peer(*ctl, from) && lie_rng_.next_bool(0.5)) {
      net_.send(self_, from,
                net::make_message<UpdateAck>(
                    u->app, u->txn_id ^ 0x8000000000000000ULL));
    }
    return;
  }
  if (const auto* ping = net::message_cast<HeartbeatPing>(msg)) {
    // Keep pinging back: a liar that played dead would trip the freeze
    // strategy and bench itself — answering heartbeats while lying about
    // rights is the strictly nastier adversary.
    if (AppCtl* ctl = ctl_of(ping->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
      net_.send(self_, from,
                net::make_message<HeartbeatPong>(ping->app, ping->seq));
    }
    return;
  }
  if (const auto* pong = net::message_cast<HeartbeatPong>(msg)) {
    if (AppCtl* ctl = ctl_of(pong->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
    }
    return;
  }
  // VersionQuery, SyncRequest, sync traffic, acks: silence. Manager-side
  // quorums (version reads, recovery syncs) therefore only ever assemble
  // from honest peers.
}

void ManagerModule::byzantine_answer_query(HostId from, const QueryRequest& q) {
  AppCtl* ctl = ctl_of(q.app);
  if (ctl == nullptr || !ctl->synced) return;  // nothing plausible to lie with

  LieMode mode = lie_mode_;
  if (mode == LieMode::kSeeded) {
    const double roll = lie_rng_.next_uniform(0.0, 1.0);
    if (roll < 0.25) {
      mode = LieMode::kSilent;
    } else if (roll < 0.625) {
      mode = LieMode::kInvert;
    } else {
      mode = LieMode::kStale;
    }
  }
  if (mode == LieMode::kSilent) return;

  // Everything the liar says derives from its frozen store: admin-signed
  // updates mean it cannot fabricate versions it never received, only
  // misreport the rights attached to ones it did.
  acl::RightSet rights = ctl->store.rights_of(q.user);
  acl::Version version{};
  if (const auto st = ctl->store.state(q.user, acl::Right::kUse)) {
    version = st->version;
  }
  if (mode == LieMode::kInvert) {
    if (rights.has(acl::Right::kUse)) {
      rights.remove(acl::Right::kUse);
    } else {
      rights.add(acl::Right::kUse);
    }
  }
  sim::Duration expiry = config_.expiry_period();
  if (mode == LieMode::kHugeExpiry) {
    expiry = sim::Duration::nanos(expiry.count_nanos() * 64);
  }
  if (response_observer_) {
    response_observer_(QueryAnswerEvent{q.app, q.user, from, version,
                                        frozen_by_silence(q.app), ctl->synced,
                                        /*byzantine=*/true});
  }
  net_.send(self_, from,
            net::make_message<QueryResponse>(q.app, q.user, q.query_id, rights,
                                             version, expiry, q.trace));
  // Deliberately no grant_table insert: the liar also shirks its revocation
  // forwarding duty for grants it hands out.
}

void ManagerModule::handle_update(HostId from, const UpdateMsg& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  obs::record(m.trace, obs::SpanKind::kRecv, self_, env_.now(), "update.recv",
              from.value(),
              static_cast<std::int64_t>(m.update.version.counter));
  // Ack-without-apply for unowned keys: a retransmit that lands after a
  // shard flipped away must still retire the issuer's transaction (the
  // drained handoff already carried the update to the new owner group), but
  // applying it would resurrect a dropped slice.
  const bool applied = owns_key(*ctl, m.app, m.update.user) &&
                       apply_update(m.app, *ctl, m.update);
  net_.send(self_, from, net::make_message<UpdateAck>(m.app, m.txn_id));
  if (applied && m.update.op == acl::Op::kRevoke) {
    // Each manager forwards the revocation to the hosts *it* granted (§3.1);
    // the forwarded notifies stay on the ISSUER's trace, so the full
    // revocation fan-out reconstructs from one id.
    start_revoke_forwarding(m.app, *ctl, m.update.user, m.update.version,
                            m.trace);
  }
}

void ManagerModule::handle_update_ack(HostId from, const UpdateAck& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  const auto it = ctl->txns.find(m.txn_id);
  if (it == ctl->txns.end()) return;
  Txn& txn = *it->second;
  txn.pending_peers.erase(from);
  obs::record(txn.trace, obs::SpanKind::kRecv, self_, env_.now(), "update.ack",
              from.value());
  txn.acks.record(from);
  if (txn.acks.reached() && !txn.quorum_fired) {
    txn.quorum_fired = true;
    obs::record(txn.trace, obs::SpanKind::kDecision, self_, env_.now(),
                "update.quorum", txn.update.user.value(),
                op_arg(txn.update.op));
    update_quorum_counter().inc();
    WAN_DEBUG << to_string(self_) << " update v" << txn.update.version.counter
              << " reached quorum (" << txn.acks.count() << " acks)";
    if (txn.done) {
      txn.done(UpdateOutcome{m.app, txn.update, txn.issued, env_.now(),
                             txn.acks.count()});
    }
  }
  if (txn.pending_peers.empty()) ctl->txns.erase(it);
}

void ManagerModule::handle_sync_request(HostId from, const SyncRequest& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  if (!ctl->synced) return;  // cannot vouch for state we have not recovered
  // Scope the snapshot to the shards the REQUESTER's group owns. Before
  // sharding this sent the whole store, which under a shard map leaks
  // unowned residual slices back into a freshly-recovered peer (and costs
  // bandwidth proportional to the deployment, not the shard). The regression
  // tests pin the transferred entry count through sync_entries_sent().
  std::vector<acl::AclUpdate> snap;
  if (const shard::ShardMap& map = ctl->shard_map; !map.trivial()) {
    if (const auto req_group = map.group_index_of(from)) {
      snap = ctl->store.snapshot_if([&](UserId u) {
        return map.group_of_shard(map.shard_of(m.app, u)) == *req_group;
      });
    }
    // A requester outside the map owns nothing; the empty response still
    // lets its recovery quorum complete.
  } else {
    snap = ctl->store.snapshot();
  }
  sync_entries_sent_ += snap.size();
  net_.send(self_, from,
            net::make_message<SyncResponse>(m.app, m.sync_id, std::move(snap)));
}

void ManagerModule::handle_sync_response(HostId from, const SyncResponse& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  if (m.sync_id != ctl->sync_id) return;
  if (ctl->synced) {
    // Straggler from the sync that already completed. It can still carry an
    // update the quorum responders never saw (stranded by an issuer crash),
    // so merge it — and if it taught us anything, spread the news.
    if (merge_snapshot(m.app, *ctl, m.snapshot) > 0) push_snapshot(m.app, *ctl);
    return;
  }
  if (ctl->sync_votes == nullptr) return;
  merge_snapshot(m.app, *ctl, m.snapshot);
  record_sync_vote(m.app, *ctl, from);
}

void ManagerModule::record_sync_vote(AppId app, AppCtl& ctl, HostId from) {
  if (ctl.sync_votes == nullptr || !ctl.sync_votes->record(from)) return;
  ctl.synced = true;
  ctl.sync_votes.reset();
  if (ctl.sync_timer) ctl.sync_timer->cancel();
  ctl.sync_timer.reset();
  WAN_DEBUG << to_string(self_) << " recovery sync complete for "
            << to_string(app);
  if (ctl.sync_adopts_pending) adopt_pending_shards(app, ctl);
  // Push the merged state back: peers that missed a partially-disseminated
  // update (whose issuer crashed and lost its retransmission duty) pick it
  // up here, restoring store convergence that pull-only sync cannot.
  push_snapshot(app, ctl);
  // Release operations that blocked on the sync, in submission order.
  flush_deferred_submits();
}

void ManagerModule::handle_sync_push(HostId from, const SyncPush& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  // Merging is safe in every state (idempotent, version-gated); receipt
  // never triggers a further push, so pushes cannot cascade.
  merge_snapshot(m.app, *ctl, m.snapshot);
}

void ManagerModule::handle_delta_sync_request(HostId from,
                                              const DeltaSyncRequest& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  if (!ctl->synced) return;  // cannot vouch for state we have not recovered

  // Same scoping as handle_sync_request: only the shards the REQUESTER's
  // group owns travel (everything, under a trivial map).
  const auto owned_by_requester = [&](UserId u) {
    const shard::ShardMap& map = ctl->shard_map;
    if (map.trivial()) return true;
    const auto req_group = map.group_index_of(from);
    if (!req_group) return false;
    return map.group_of_shard(map.shard_of(m.app, u)) == *req_group;
  };

  // A cursor is only a position in THIS incarnation's log, and only while
  // the capped log still holds everything past it. Anything else falls back
  // to the full snapshot — correctness never depends on the log.
  const bool delta_ok = m.log_epoch == ctl->log_epoch &&
                        m.cursor >= ctl->log_floor &&
                        m.cursor <= ctl->next_apply_seq;
  std::vector<acl::AclUpdate> updates;
  if (delta_ok) {
    for (std::uint64_t seq = m.cursor; seq < ctl->next_apply_seq; ++seq) {
      const acl::AclUpdate& u =
          ctl->apply_log[static_cast<std::size_t>(seq - ctl->log_floor)];
      if (owned_by_requester(u.user)) updates.push_back(u);
    }
  } else {
    updates = ctl->store.snapshot_if(owned_by_requester);
  }
  sync_entries_sent_ += updates.size();
  net_.send(self_, from,
            net::make_message<DeltaSyncResponse>(
                m.app, m.sync_id, /*full=*/!delta_ok, ctl->log_epoch,
                ctl->next_apply_seq, std::move(updates)));
}

void ManagerModule::handle_delta_sync_response(HostId from,
                                               const DeltaSyncResponse& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  if (m.sync_id != ctl->sync_id) return;
  if (ctl->synced) {
    // Straggler from the completed sync (see handle_sync_response). A delta
    // suffix merges just as safely as a snapshot: both are version-gated.
    if (merge_snapshot(m.app, *ctl, m.updates) > 0) push_snapshot(m.app, *ctl);
    ctl->sync_cursors[from] = {m.log_epoch, m.next_seq};
    return;
  }
  if (ctl->sync_votes == nullptr) return;
  merge_snapshot(m.app, *ctl, m.updates);
  // Only after merging may we claim the peer's position: the cursor asserts
  // "everything this peer applied before next_seq is reflected here".
  ctl->sync_cursors[from] = {m.log_epoch, m.next_seq};
  record_sync_vote(m.app, *ctl, from);
}

void ManagerModule::mint_log_epoch(AppCtl& ctl) {
  // Deterministic under the simulated clock, unique per incarnation (the
  // salt survives crash() like version_stamp_ does): a fresh epoch
  // invalidates every cursor handed out against the previous log.
  ctl.log_epoch = stable_hash64(
      static_cast<std::uint64_t>(self_.value()),
      static_cast<std::uint64_t>(env_.now().nanos_since_origin()),
      ++log_epoch_salt_);
  if (ctl.log_epoch == 0) ctl.log_epoch = 1;  // 0 is the "no cursor" epoch
  ctl.apply_log.clear();
  ctl.log_floor = 0;
  ctl.next_apply_seq = 0;
}

void ManagerModule::log_applied(AppCtl& ctl, const acl::AclUpdate& update) {
  ctl.apply_log.push_back(update);
  ++ctl.next_apply_seq;
  const std::size_t cap =
      std::max<std::size_t>(1, config_.dissemination.delta_log_cap);
  while (ctl.apply_log.size() > cap) {
    ctl.apply_log.pop_front();
    ++ctl.log_floor;
  }
}

void ManagerModule::push_snapshot(AppId app, AppCtl& ctl) {
  if (ctl.peers.empty()) return;
  // Same scoping as handle_sync_request: peers are this group, so only the
  // group's owned slice travels.
  std::vector<acl::AclUpdate> snap;
  if (const shard::ShardMap& map = ctl.shard_map; !map.trivial()) {
    if (const auto my_group = map.group_index_of(self_)) {
      snap = ctl.store.snapshot_if([&](UserId u) {
        return map.group_of_shard(map.shard_of(app, u)) == *my_group;
      });
    }
    if (snap.empty()) return;
  } else {
    snap = ctl.store.snapshot();
  }
  const auto msg = net::make_message<SyncPush>(app, std::move(snap));
  for (const HostId p : ctl.peers) net_.send(self_, p, msg);
}

void ManagerModule::begin_sync(AppId app, AppCtl& ctl) {
  if (ctl.peers.empty()) {
    ctl.synced = true;  // single-manager degenerate case (see header)
    // No group peer can vouch for a stuck acquisition, so pending shards
    // stay refused; the old owners' retransmissions remain the only exit.
    ctl.sync_adopts_pending = false;
    return;
  }
  ctl.synced = false;
  ctl.sync_id = next_sync_id_++;
  const int needed = std::min(ctl.check_quorum,
                              static_cast<int>(ctl.peers.size()));
  ctl.sync_votes = std::make_unique<quorum::QuorumTracker>(needed);
  ctl.sync_timer = std::make_unique<runtime::Timer>(env_.make_timer());
  sync_round(app);
}

void ManagerModule::sync_round(AppId app) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr || !up_ || ctl->synced) return;
  // Retransmit until enough snapshots arrive.
  if (config_.dissemination.delta_sync) {
    // Ask each peer for just the suffix past our last-known cursor; a peer
    // that cannot honour the cursor answers with a full snapshot anyway.
    for (const HostId p : ctl->peers) {
      const auto it = ctl->sync_cursors.find(p);
      const std::uint64_t epoch = it != ctl->sync_cursors.end()
                                      ? it->second.first : 0;
      const std::uint64_t cursor = it != ctl->sync_cursors.end()
                                       ? it->second.second : 0;
      net_.send(self_, p,
                net::make_message<DeltaSyncRequest>(app, ctl->sync_id, epoch,
                                                    cursor));
    }
  } else {
    const auto msg = net::make_message<SyncRequest>(app, ctl->sync_id);
    for (const HostId p : ctl->peers) net_.send(self_, p, msg);
  }
  if (ctl->sync_timer) {
    ctl->sync_timer->arm(config_.sync_retransmit,
                         [this, app] { sync_round(app); });
  }
}

// ------------------------------------------------------ durable state

std::size_t ManagerModule::attach_journal(ManagerJournal* journal) {
  journal_ = journal;
  if (journal_ == nullptr) return 0;
  std::size_t replayed = 0;
  journal_->replay([this, &replayed](AppId app, const acl::AclUpdate& u) {
    AppCtl* ctl = ctl_of(app);
    if (ctl == nullptr) return;  // app no longer managed; records are inert
    // Direct apply: replay must not re-append what is already durable.
    ctl->store.apply(u);
    // Restore the issue-stamp floor from our own updates so a restarted
    // incarnation never mints a stamp at or below one it already used.
    if (u.version.origin == self_ && u.version.stamp > version_stamp_) {
      version_stamp_ = u.version.stamp;
    }
    ++replayed;
  });
  obs::record(/*trace=*/0, obs::SpanKind::kInstant, self_, env_.now(),
              "journal.replay", static_cast<std::int64_t>(replayed));
  return replayed;
}

bool ManagerModule::apply_update(AppId app, AppCtl& ctl,
                                 const acl::AclUpdate& update) {
  const bool applied = ctl.store.apply(update);
  if (applied && config_.dissemination.delta_sync) log_applied(ctl, update);
  if (applied && journal_ != nullptr) {
    journal_->append(app, update);
    maybe_compact(app, ctl);
  }
  return applied;
}

std::size_t ManagerModule::merge_snapshot(
    AppId app, AppCtl& ctl, const std::vector<acl::AclUpdate>& snapshot) {
  // AclStore::merge is a loop of applies; doing the loop here keeps the
  // journal exact (only registers that actually changed are appended).
  // Unowned entries are skipped — a sync peer that still carries a residual
  // slice from before a flip must not re-seed it here.
  std::size_t changed = 0;
  for (const acl::AclUpdate& u : snapshot) {
    if (!owns_key(ctl, app, u.user)) continue;
    if (apply_update(app, ctl, u)) ++changed;
  }
  return changed;
}

void ManagerModule::maybe_compact(AppId app, AppCtl& ctl) {
  // Past this many log records a replay costs more than a snapshot write;
  // stale log entries surviving a crash-between-rename-and-truncate are
  // re-applied as no-ops, so the threshold is pure tuning.
  constexpr std::size_t kCompactAfter = 256;
  if (journal_->log_records(app) >= kCompactAfter) {
    const auto snapshot = ctl.store.snapshot();
    journal_->compact(app, snapshot);
    obs::record(/*trace=*/0, obs::SpanKind::kInstant, self_, env_.now(),
                "journal.compact", static_cast<std::int64_t>(snapshot.size()));
  }
}

// ------------------------------------------------------------- sharding

bool ManagerModule::owns_key(const AppCtl& ctl, AppId app, UserId user) const {
  return ctl.shard_map.trivial() || ctl.shard_map.owns(self_, app, user);
}

bool ManagerModule::shard_sender_ok(const AppCtl& ctl, HostId from) const {
  // Handoff traffic crosses group boundaries, so is_peer alone cannot vet
  // it; any member of the current map is a trusted manager (joining groups
  // get the pre-rebalance map installed before the handoff starts).
  if (!ctl.shard_map.empty()) {
    return ctl.shard_map.group_index_of(from).has_value();
  }
  return is_peer(ctl, from);
}

void ManagerModule::set_shard_map(AppId app, shard::ShardMap map) {
  AppCtl* ctl = ctl_of(app);
  WAN_REQUIRE(ctl != nullptr);
  WAN_REQUIRE(map.valid());
  ctl->shard_map = std::move(map);
}

const shard::ShardMap* ManagerModule::shard_map(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl == nullptr ? nullptr : &ctl->shard_map;
}

std::size_t ManagerModule::pending_shards(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl == nullptr ? 0 : ctl->pending_acquire.size();
}

std::size_t ManagerModule::staged_shards(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl == nullptr ? 0 : ctl->staging.size();
}

std::size_t ManagerModule::tracked_handoff_series(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl == nullptr ? 0 : ctl->handoffs_in.size();
}

std::vector<acl::AclUpdate> ManagerModule::slice_snapshot(
    const AppCtl& ctl, AppId app, const shard::ShardMap& map,
    std::uint32_t shard) const {
  return ctl.store.snapshot_if(
      [&](UserId u) { return map.shard_of(app, u) == shard; });
}

std::size_t ManagerModule::complete_senders(const AppCtl& ctl,
                                            std::uint32_t shard) {
  const auto pit = ctl.pending_acquire.find(shard);
  if (pit == ctl.pending_acquire.end()) return 0;
  const PendingAcquire& pa = pit->second;
  std::size_t n = 0;
  for (const auto& [key, hi] : ctl.handoffs_in) {
    if (key.first != shard || !hi.complete) continue;
    // Only a series carrying the committed rebalance's epoch, streamed by a
    // member of the shard's old owner group, is quorum evidence. Anything
    // else is a leftover from an earlier epoch — a shard that bounced away
    // and back — and proves nothing about the slice in flight now.
    if (hi.epoch != pa.epoch || pa.senders.count(key.second) == 0) continue;
    ++n;
  }
  return n;
}

void ManagerModule::drop_handoff_in(AppCtl& ctl, std::uint32_t shard) {
  for (auto it = ctl.handoffs_in.begin(); it != ctl.handoffs_in.end();) {
    it = it->first.first == shard ? ctl.handoffs_in.erase(it) : std::next(it);
  }
  ctl.staging.erase(shard);
}

void ManagerModule::begin_shard_handoff(AppId app,
                                        const shard::ShardMap& next) {
  AppCtl* ctl = ctl_of(app);
  WAN_REQUIRE(ctl != nullptr);
  WAN_REQUIRE(next.valid() && !next.empty());
  // shard_count is fixed for a deployment's lifetime — only ownership moves.
  WAN_REQUIRE(ctl->shard_map.trivial() ||
              ctl->shard_map.shard_count() == next.shard_count());
  if (!up_) return;
  ctl->proposed = next;
  const shard::ShardMap& cur = ctl->shard_map;
  const auto my_next = next.group_index_of(self_);
  for (std::uint32_t s = 0; s < next.shard_count(); ++s) {
    // A trivial current map means this manager holds the whole key space.
    if (!(cur.trivial() || cur.owns_shard(self_, s))) continue;
    const std::uint32_t next_group = next.group_of_shard(s);
    if (my_next.has_value() && *my_next == next_group) continue;  // stays
    auto h = std::make_unique<HandoffOut>(env_);
    h->shard = s;
    h->epoch = next.epoch();
    h->slice = slice_snapshot(*ctl, app, next, s);
    h->series = slice_series(h->slice);
    for (const HostId d : next.group(next_group)) h->dests.insert(d);
    WAN_DEBUG << to_string(self_) << " hands off shard " << s << " of "
              << to_string(app) << " (" << h->slice.size() << " entries, "
              << h->dests.size() << " dests)";
    static obs::Counter& handoffs =
        obs::Registry::global().counter("wan_shard_handoffs_total");
    handoffs.inc();
    obs::record(/*trace=*/0, obs::SpanKind::kInstant, self_, env_.now(),
                "shard.handoff.begin", s,
                static_cast<std::int64_t>(h->epoch));
    ctl->handoffs_out[s] = std::move(h);
    handoff_round(app, s);
  }
}

void ManagerModule::handoff_round(AppId app, std::uint32_t shard) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr || !up_) return;
  const auto it = ctl->handoffs_out.find(shard);
  if (it == ctl->handoffs_out.end()) return;
  HandoffOut& h = *it->second;
  if (!h.frozen && ctl->proposed.has_value()) {
    // Re-snapshot: a write that raced the previous series starts a fresh one
    // (new content hash), invalidating every ack collected so far.
    auto slice = slice_snapshot(*ctl, app, *ctl->proposed, h.shard);
    if (const std::uint64_t series = slice_series(slice);
        series != h.series) {
      h.series = series;
      h.slice = std::move(slice);
      h.acked.clear();
    }
  }
  if (h.acked.size() == h.dests.size()) {
    if (h.frozen) {  // post-commit drain finished; nothing left to watch
      h.retry.cancel();
      ctl->handoffs_out.erase(it);
      return;
    }
  } else {
    send_handoff_series(app, *ctl, h);
  }
  h.retry.arm(config_.sync_retransmit,
              [this, app, shard] { handoff_round(app, shard); });
}

void ManagerModule::send_handoff_series(AppId app, const AppCtl& ctl,
                                        const HandoffOut& h) {
  (void)ctl;
  const auto total = static_cast<std::uint32_t>(
      (h.slice.size() + kHandoffChunkUpdates - 1) / kHandoffChunkUpdates);
  const auto begin = net::make_message<ShardHandoffBegin>(app, h.epoch,
                                                          h.shard, h.series,
                                                          total);
  std::vector<net::MessagePtr> chunks;
  chunks.reserve(total);
  for (std::uint32_t q = 0; q < total; ++q) {
    const std::size_t lo = static_cast<std::size_t>(q) * kHandoffChunkUpdates;
    const std::size_t hi =
        std::min(h.slice.size(), lo + kHandoffChunkUpdates);
    chunks.push_back(net::make_message<ShardHandoffChunk>(
        app, h.epoch, h.shard, h.series, q,
        std::vector<acl::AclUpdate>(h.slice.begin() + lo,
                                    h.slice.begin() + hi)));
  }
  static obs::Counter& chunks_sent =
      obs::Registry::global().counter("wan_shard_chunks_sent_total");
  for (const HostId d : h.dests) {
    if (h.acked.count(d) != 0) continue;
    net_.send(self_, d, begin);
    for (const auto& c : chunks) net_.send(self_, d, c);
    chunks_sent.inc(chunks.size());
    obs::record(/*trace=*/0, obs::SpanKind::kSend, self_, env_.now(),
                "shard.handoff.chunks", h.shard,
                static_cast<std::int64_t>(total));
  }
}

bool ManagerModule::handoff_drained(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return false;
  for (const auto& [shard, hptr] : ctl->handoffs_out) {
    const HandoffOut& h = *hptr;
    if (h.acked.size() != h.dests.size()) return false;
    if (!h.frozen && ctl->proposed.has_value()) {
      // The acks are only evidence if the slice has not moved on since.
      if (slice_series(slice_snapshot(*ctl, app, *ctl->proposed, h.shard)) !=
          h.series) {
        return false;
      }
    }
  }
  return true;
}

void ManagerModule::commit_shard_map(AppId app, shard::ShardMap next) {
  AppCtl* ctl = ctl_of(app);
  WAN_REQUIRE(ctl != nullptr);
  WAN_REQUIRE(next.valid() && !next.empty());
  const shard::ShardMap old = ctl->shard_map;
  WAN_REQUIRE(old.trivial() || old.shard_count() == next.shard_count());

  // Freeze outgoing handoffs at their final slice. On the drained-commit
  // path every series is already acked and the record retires; a scripted
  // commit that raced a write keeps retransmitting the frozen final slice
  // until its destinations ack it.
  for (auto it = ctl->handoffs_out.begin(); it != ctl->handoffs_out.end();) {
    HandoffOut& h = *it->second;
    if (!h.frozen && ctl->proposed.has_value()) {
      auto slice = slice_snapshot(*ctl, app, *ctl->proposed, h.shard);
      if (const std::uint64_t series = slice_series(slice);
          series != h.series) {
        h.series = series;
        h.slice = std::move(slice);
        h.acked.clear();
      }
    }
    h.frozen = true;
    if (h.acked.size() == h.dests.size()) {
      h.retry.cancel();
      it = ctl->handoffs_out.erase(it);
    } else {
      ++it;
    }
  }

  ctl->shard_map = std::move(next);
  ctl->proposed.reset();
  const shard::ShardMap& map = ctl->shard_map;

  const auto owned_under = [this](const shard::ShardMap& m, std::uint32_t s) {
    return m.trivial() || m.owns_shard(self_, s);
  };
  std::vector<std::uint32_t> gained;
  std::vector<char> lost(map.shard_count(), 0);
  bool any_lost = false;
  for (std::uint32_t s = 0; s < map.shard_count(); ++s) {
    const bool was = owned_under(old, s);
    const bool now = owned_under(map, s);
    if (was && !now) {
      lost[s] = 1;
      any_lost = true;
    } else if (!was && now) {
      gained.push_back(s);
    }
  }

  if (any_lost) {
    // Shed the moved slices and their grant-table rows, then force-compact
    // the journal: replay must never resurrect a register the new owner now
    // speaks for. Grant tables are not transferred — every grant the old
    // owner issued dies of cache expiry within te, so the Te bound holds
    // across the flip without them.
    const auto in_lost = [&](UserId u) {
      return lost[map.shard_of(app, u)] != 0;
    };
    ctl->store.erase_users_if(in_lost);
    for (auto it = ctl->grant_table.begin(); it != ctl->grant_table.end();) {
      it = in_lost(it->first) ? ctl->grant_table.erase(it) : std::next(it);
    }
    if (journal_ != nullptr) journal_->compact(app, ctl->store.snapshot());
    // A lost shard's acquisition state dies with it: a pending entry is
    // moot (this group no longer answers for the shard), and any tracked or
    // staged inbound series must not linger to masquerade as evidence if a
    // later rebalance brings the shard back.
    for (std::uint32_t s = 0; s < map.shard_count(); ++s) {
      if (lost[s] == 0) continue;
      ctl->pending_acquire.erase(s);
      drop_handoff_in(*ctl, s);
    }
  }

  for (const std::uint32_t s : gained) {
    // Quorum intersection (§3.4 applied to the old group): complete series
    // from min(C, |old group|) distinct old members are guaranteed to carry
    // every update that completed its quorum there. `old` is non-trivial
    // whenever `gained` is non-empty (a trivial map owned everything).
    const std::vector<HostId>& old_members = old.group(old.group_of_shard(s));
    PendingAcquire pa;
    pa.need = std::min(ctl->check_quorum, static_cast<int>(old_members.size()));
    pa.epoch = map.epoch();
    pa.senders.insert(old_members.begin(), old_members.end());
    pa.begun = env_.now();
    ctl->pending_acquire[s] = std::move(pa);
    maybe_activate_shard(app, *ctl, s);
  }
  static obs::Counter& rebalances =
      obs::Registry::global().counter("wan_shard_rebalances_total");
  rebalances.inc();
  obs::record(/*trace=*/0, obs::SpanKind::kInstant, self_, env_.now(),
              "shard.map.commit", static_cast<std::int64_t>(map.epoch()),
              static_cast<std::int64_t>(gained.size()));
  WAN_DEBUG << to_string(self_) << " committed shard map epoch "
            << map.epoch() << " for " << to_string(app) << " (+"
            << gained.size() << " shards, pending "
            << ctl->pending_acquire.size() << ")";
}

void ManagerModule::abort_shard_handoff(AppId app) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return;
  for (auto& [shard, h] : ctl->handoffs_out) h->retry.cancel();
  ctl->handoffs_out.clear();
  ctl->handoffs_in.clear();
  ctl->staging.clear();
  ctl->proposed.reset();
}

void ManagerModule::announce_shard_map(AppId app,
                                       const std::vector<HostId>& recipients) {
  AppCtl* ctl = ctl_of(app);
  WAN_REQUIRE(ctl != nullptr);
  if (!up_ || ctl->shard_map.empty()) return;
  const auto msg = net::make_message<ShardMapAnnounce>(app, ctl->shard_map);
  for (const HostId r : recipients) {
    if (r != self_) net_.send(self_, r, msg);
  }
}

void ManagerModule::maybe_activate_shard(AppId app, AppCtl& ctl,
                                         std::uint32_t shard) {
  const auto it = ctl.pending_acquire.find(shard);
  if (it == ctl.pending_acquire.end()) return;
  if (static_cast<int>(complete_senders(ctl, shard)) < it->second.need) {
    return;
  }
  if (const auto sit = ctl.staging.find(shard); sit != ctl.staging.end()) {
    merge_snapshot(app, ctl, sit->second.snapshot());
    ctl.staging.erase(sit);
  }
  const std::uint64_t epoch = it->second.epoch;
  const sim::TimePoint begun = it->second.begun;
  ctl.pending_acquire.erase(it);
  static obs::Counter& activations =
      obs::Registry::global().counter("wan_shard_activations_total");
  activations.inc();
  static obs::Histo& handoff_latency =
      obs::Registry::global().histogram("wan_shard_handoff_seconds");
  handoff_latency.observe(env_.now() - begun);
  obs::record(/*trace=*/0, obs::SpanKind::kInstant, self_, env_.now(),
              "shard.activate", shard, static_cast<std::int64_t>(epoch));
  // The series did their job; drop them so they can never be mistaken for
  // evidence by a later rebalance. A sender whose Done was lost retransmits
  // its Begin and gets re-acked through the active-shard path.
  drop_handoff_in(ctl, shard);
  WAN_DEBUG << to_string(self_) << " activated shard " << shard << " of "
            << to_string(app);
}

void ManagerModule::adopt_pending_shards(AppId app, AppCtl& ctl) {
  ctl.sync_adopts_pending = false;
  if (ctl.pending_acquire.empty()) return;
  // A quorum of group peers just vouched for their stores, and a store (or
  // a sync response) only ever carries activation-complete slices — staging
  // never leaks into either. Adopting that state is the only exit when the
  // old owners retired their handoffs against acks this manager lost in
  // the crash: without it the shard is refused forever, even though the
  // group answers for it. Sub-quorum staging is dropped, not merged — short
  // of the transfer quorum it may hold a grant whose completed revoke only
  // the missing senders carry, which is exactly what pending_acquire
  // guards the Te bound against.
  static obs::Counter& adoptions =
      obs::Registry::global().counter("wan_shard_adoptions_total");
  for (auto it = ctl.pending_acquire.begin();
       it != ctl.pending_acquire.end();) {
    const std::uint32_t s = it->first;
    const std::uint64_t epoch = it->second.epoch;
    it = ctl.pending_acquire.erase(it);
    drop_handoff_in(ctl, s);
    adoptions.inc();
    obs::record(/*trace=*/0, obs::SpanKind::kInstant, self_, env_.now(),
                "shard.adopt", s, static_cast<std::int64_t>(epoch));
    WAN_DEBUG << to_string(self_) << " adopted shard " << s << " of "
              << to_string(app) << " from its recovery sync";
  }
}

void ManagerModule::handle_shard_map_announce(HostId from,
                                              const ShardMapAnnounce& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !shard_sender_ok(*ctl, from)) return;
  // Epoch discipline: only strictly newer maps are adopted, so replayed or
  // reordered announces cannot roll ownership back.
  if (m.map.epoch() <= ctl->shard_map.epoch()) return;
  // shard_count is fixed for a deployment's lifetime; an announce that
  // disagrees with the installed map is a misconfigured (or lying)
  // coordinator. A bad frame is a drop, never an abort — funnelling it into
  // commit_shard_map's WAN_REQUIRE would let one such announce crash every
  // manager that hears it.
  if (!ctl->shard_map.trivial() &&
      m.map.shard_count() != ctl->shard_map.shard_count()) {
    WAN_DEBUG << to_string(self_) << " drops shard map announce from "
              << to_string(from) << " (shard_count " << m.map.shard_count()
              << " != " << ctl->shard_map.shard_count() << ")";
    return;
  }
  commit_shard_map(m.app, m.map);
}

void ManagerModule::handle_handoff_begin(HostId from,
                                         const ShardHandoffBegin& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !shard_sender_ok(*ctl, from)) return;
  // Equal epoch stays accepted: post-commit straggler series must still be
  // able to complete a pending shard.
  if (m.epoch < ctl->shard_map.epoch()) return;
  if (!ctl->shard_map.empty() && m.shard >= ctl->shard_map.shard_count()) {
    return;
  }
  // A current-epoch series for a shard that is not pending is a straggler:
  // either this manager already activated the shard (its quorum is met and
  // the series carries nothing the merge did not) or the shard was never
  // gained here. Ack the former so the sender can retire — repairing a lost
  // Done — but do not track or stage it: recreating staging for an active
  // shard would leak it for the process lifetime, since nothing drains
  // staging after activation. Higher-epoch series (pre-commit transfers)
  // fall through to normal tracking.
  if (m.epoch == ctl->shard_map.epoch() &&
      ctl->pending_acquire.count(m.shard) == 0) {
    if (ctl->shard_map.trivial() || ctl->shard_map.owns_shard(self_, m.shard)) {
      net_.send(self_, from,
                net::make_message<ShardHandoffDone>(m.app, m.epoch, m.shard,
                                                    m.series));
    }
    return;
  }
  HandoffIn& hi = ctl->handoffs_in[{m.shard, from}];
  if (hi.series != m.series) {
    hi = HandoffIn{};  // a new series from this sender restarts its tracking
    hi.epoch = m.epoch;
    hi.series = m.series;
    hi.total = m.total;
  }
  if (!hi.complete && hi.received.size() >= hi.total) {
    hi.complete = true;  // covers the empty-slice series (total == 0)
  }
  if (hi.complete) {
    // Re-acking on a retransmitted Begin repairs a lost Done.
    net_.send(self_, from,
              net::make_message<ShardHandoffDone>(m.app, hi.epoch, m.shard,
                                                  hi.series));
    maybe_activate_shard(m.app, *ctl, m.shard);
  }
}

void ManagerModule::handle_handoff_chunk(HostId from,
                                         const ShardHandoffChunk& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !shard_sender_ok(*ctl, from)) return;
  if (m.epoch < ctl->shard_map.epoch()) return;
  // Same straggler discipline as handle_handoff_begin: once the shard is no
  // longer pending at the current epoch, inbound series are finished
  // business — drop any leftover tracking instead of staging data nothing
  // will ever drain.
  if (m.epoch == ctl->shard_map.epoch() &&
      ctl->pending_acquire.count(m.shard) == 0) {
    drop_handoff_in(*ctl, m.shard);
    return;
  }
  const auto it = ctl->handoffs_in.find({m.shard, from});
  if (it == ctl->handoffs_in.end() || it->second.series != m.series) return;
  HandoffIn& hi = it->second;
  if (m.seq >= hi.total) return;
  if (!hi.received.insert(m.seq).second) return;  // duplicate chunk
  static obs::Counter& chunks_received =
      obs::Registry::global().counter("wan_shard_chunks_received_total");
  chunks_received.inc();
  // Chunks merge into the staging store, never the live one: queries must
  // not see a half-transferred slice, and an abort simply discards staging.
  // LWW merging makes chunks from different senders and restarted series
  // all land correctly regardless of order.
  ctl->staging[m.shard].merge(m.updates);
  if (!hi.complete && hi.received.size() >= hi.total) {
    hi.complete = true;
    net_.send(self_, from,
              net::make_message<ShardHandoffDone>(m.app, hi.epoch, m.shard,
                                                  hi.series));
    maybe_activate_shard(m.app, *ctl, m.shard);
  }
}

void ManagerModule::handle_handoff_done(HostId from,
                                        const ShardHandoffDone& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr) return;
  const auto it = ctl->handoffs_out.find(m.shard);
  if (it == ctl->handoffs_out.end()) return;
  HandoffOut& h = *it->second;
  if (m.series != h.series || h.dests.count(from) == 0) return;
  h.acked.insert(from);
  if (h.frozen && h.acked.size() == h.dests.size()) {
    h.retry.cancel();
    ctl->handoffs_out.erase(it);
  }
}

// ------------------------------------------------------ crash / recovery

void ManagerModule::crash() {
  up_ = false;
  byzantine_ = false;  // a crashed-and-reimaged replica comes back honest
  for (auto& [app, ctl] : apps_) {
    ctl.store = acl::AclStore{};
    ctl.grant_table.clear();
    ctl.reads.clear();
    ctl.txns.clear();
    ctl.last_heard.clear();
    // Delta-sync state is as volatile as the store it shadows: the log dies
    // with the store, and our cursors into peers are void (an empty store
    // cannot be completed by a suffix — recovery must pull full snapshots).
    ctl.apply_log.clear();
    ctl.log_floor = 0;
    ctl.next_apply_seq = 0;
    ctl.sync_cursors.clear();
    ctl.sync_votes.reset();
    ctl.sync_timer.reset();
    if (ctl.heartbeat) ctl.heartbeat->stop();
    ctl.heartbeat.reset();
    ctl.synced = false;
    ctl.deferred_submits.clear();  // ops die with the crash; callers time out
    // Handoff machinery is volatile. The shard map itself survives (like the
    // name-service record it mirrors), and so does pending_acquire: a gained
    // shard whose transfer quorum never completed has no activation in the
    // journal, so a restarted manager must keep refusing it — answering from
    // a partial slice could outlive a revocation the old owner completed.
    // The refusal ends when old owners re-stream enough series, or when the
    // recovery sync completes and adopts the group's activated state
    // (adopt_pending_shards).
    for (auto& [shard, h] : ctl.handoffs_out) h->retry.cancel();
    ctl.handoffs_out.clear();
    ctl.handoffs_in.clear();
    ctl.staging.clear();
    ctl.proposed.reset();
  }
  // Every in-flight revocation fan-out is volatile strategy state.
  disseminator_->shutdown();
}

void ManagerModule::recover() {
  up_ = true;
  const clk::LocalTime now = local_now();
  for (auto& [app, ctl] : apps_) {
    for (const HostId p : ctl.peers) ctl.last_heard[p] = now;
    if (config_.freeze_enabled) start_heartbeats(app, ctl);
    // A fresh apply-log incarnation: cursors peers hold into the pre-crash
    // log must miss (the log died with the store) and fall back to full.
    mint_log_epoch(ctl);
    // Crash-recovery syncs (and only those) may adopt group state for
    // shards stuck in pending_acquire — see adopt_pending_shards().
    ctl.sync_adopts_pending = true;
    begin_sync(app, ctl);
  }
}

void ManagerModule::resync(AppId app) {
  AppCtl* ctl = ctl_of(app);
  if (!up_ || ctl == nullptr || !ctl->synced) return;
  begin_sync(app, *ctl);
}

void ManagerModule::restart_sync(AppId app) {
  AppCtl* ctl = ctl_of(app);
  if (!up_ || ctl == nullptr || !ctl->synced) return;
  ctl->sync_adopts_pending = true;
  begin_sync(app, *ctl);
}

}  // namespace wan::proto
