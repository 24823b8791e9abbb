#include "load.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "auth/authenticator.hpp"
#include "net/codec.hpp"
#include "proto/messages.hpp"

namespace perfbench {

using namespace wan;

namespace {

// Users live in disjoint id ranges; the seed picks which ids of each range.
constexpr std::uint32_t kRangeWidth = 10'000;
constexpr std::uint32_t kHotBase = 10'000;
constexpr std::uint32_t kColdBase = 20'000;
constexpr std::uint32_t kChurnBase = 30'000;
constexpr std::uint32_t kUpdaterBase = 40'000;
constexpr std::uint32_t kProbeGrantedBase = 50'000;
constexpr std::uint32_t kProbeColdBase = 60'000;
constexpr std::uint32_t kMaxUserId = 70'000;

constexpr int kProbeGranted = 64;
constexpr int kProbeCold = 512;
constexpr int kUpdaters = 16;

const char kPayload[] = "x";

std::vector<UserId> sample_users(Rng& rng, std::uint32_t base, int count) {
  std::vector<std::uint32_t> ids(kRangeWidth);
  for (std::uint32_t i = 0; i < kRangeWidth; ++i) ids[i] = base + i;
  std::vector<UserId> out;
  for (int k = 0; k < count; ++k) {
    const std::size_t pick =
        k + rng.next_below(kRangeWidth - static_cast<std::uint64_t>(k));
    std::swap(ids[static_cast<std::size_t>(k)], ids[pick]);
    out.emplace_back(ids[static_cast<std::size_t>(k)]);
  }
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  // W is the smallest window within ~5% of the workload's throughput peak
  // (perfbench/README.md records the sweep).
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"hot_check", /*window=*/32, /*hot=*/64, /*cold=*/0, /*churn=*/0,
       /*chains=*/4, /*churn_share=*/0.0, /*mixed=*/false, /*journals=*/false},
      {"cold_check", /*window=*/8, /*hot=*/0, /*cold=*/1024, /*churn=*/0,
       /*chains=*/4, /*churn_share=*/0.0, /*mixed=*/false, /*journals=*/false},
      {"revoke_mix", /*window=*/16, /*hot=*/64, /*cold=*/0, /*churn=*/8,
       /*chains=*/4, /*churn_share=*/0.2, /*mixed=*/true, /*journals=*/true},
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<UserId> Population::all() const {
  std::vector<UserId> out;
  for (const auto* set :
       {&hot, &cold, &churn, &updaters, &probe_granted, &probe_cold}) {
    out.insert(out.end(), set->begin(), set->end());
  }
  return out;
}

std::vector<UserId> Population::granted_at_setup() const {
  std::vector<UserId> out;
  for (const auto* set : {&hot, &churn, &updaters, &probe_granted}) {
    out.insert(out.end(), set->begin(), set->end());
  }
  return out;
}

Population make_population(const WorkloadSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  Population pop;
  pop.seed = seed;
  pop.keys = auth::generate_keypair(rng);
  pop.hot = sample_users(rng, kHotBase, spec.hot_users);
  pop.cold = sample_users(rng, kColdBase, spec.cold_users);
  pop.churn = sample_users(rng, kChurnBase, spec.churn_users);
  pop.updaters = sample_users(rng, kUpdaterBase, kUpdaters);
  pop.probe_granted = sample_users(rng, kProbeGrantedBase, kProbeGranted);
  pop.probe_cold = sample_users(rng, kProbeColdBase, kProbeCold);
  return pop;
}

FrameSource::FrameSource(const WorkloadSpec& spec, const Population& pop)
    : spec_(spec), pop_(pop), rng_(pop.seed ^ 0x5eedf00dULL) {
  nonces_.assign(static_cast<std::size_t>(kMaxUserId) * kHosts, 0);
  for (const UserId u : pop.cold) {
    for (int h = 0; h < kHosts; ++h) {
      cold_order_.emplace_back(u.value(), static_cast<std::uint8_t>(h));
    }
  }
  shuffle(cold_order_, rng_);
}

void FrameSource::append(RequestBatch* out, UserId user, int host, Kind kind,
                         HostId to) {
  const std::uint64_t nonce =
      ++nonces_[static_cast<std::size_t>(user.value()) * kHosts +
                static_cast<std::size_t>(host)];
  const auth::Signature sig = auth::sign(
      user, auth::Authenticator::signed_bytes(kPayload, nonce), pop_.keys.secret);
  const proto::InvokeRequest req(kApp, user, next_request_id_++, nonce, sig,
                                 kPayload);
  if (!net::CodecRegistry::global().encode_into(HostId(kClientId), to, req,
                                                &scratch_)) {
    std::fprintf(stderr, "perfbench: InvokeRequest does not encode\n");
    std::exit(2);
  }
  if (out->frame_size == 0) out->frame_size = scratch_.size();
  if (scratch_.size() != out->frame_size) {
    std::fprintf(stderr, "perfbench: request frames differ in size\n");
    std::exit(2);
  }
  out->bytes.insert(out->bytes.end(), scratch_.begin(), scratch_.end());
  out->user.push_back(user);
  out->host.push_back(static_cast<std::uint8_t>(host));
  out->kind.push_back(kind);
}

static void reset_batch(RequestBatch* out, std::uint64_t first_id, std::size_t n) {
  out->first_id = first_id;
  out->bytes.clear();
  out->user.clear();
  out->host.clear();
  out->kind.clear();
  out->bytes.reserve(n * (out->frame_size == 0 ? 80 : out->frame_size));
  out->user.reserve(n);
  out->host.reserve(n);
  out->kind.reserve(n);
}

static void reset_outcomes(RequestBatch* out) {
  out->sent_ns.assign(out->size(), 0);
  out->recv_ns.assign(out->size(), 0);
  out->verdict.assign(out->size(), 0);
}

void FrameSource::next_batch(std::size_t n, RequestBatch* out) {
  reset_batch(out, next_request_id_, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!pop_.cold.empty()) {
      const auto [user, host] = cold_order_[cold_cursor_++ % cold_order_.size()];
      append(out, UserId(user), host, Kind::kCold, Rig::host_id(host));
      continue;
    }
    const int host = static_cast<int>(rng_.next_below(kHosts));
    if (!pop_.churn.empty() && rng_.next_double() < spec_.churn_share) {
      const UserId user = pop_.churn[rng_.next_below(pop_.churn.size())];
      append(out, user, host, Kind::kChurn, Rig::host_id(host));
    } else {
      const UserId user = pop_.hot[rng_.next_below(pop_.hot.size())];
      append(out, user, host, Kind::kHot, Rig::host_id(host));
    }
  }
  reset_outcomes(out);
}

void FrameSource::warm_batch(const std::vector<UserId>& users, Kind kind,
                             RequestBatch* out) {
  reset_batch(out, next_request_id_, users.size() * kHosts);
  for (const UserId user : users) {
    for (int h = 0; h < kHosts; ++h) append(out, user, h, kind, Rig::host_id(h));
  }
  reset_outcomes(out);
}

std::vector<std::uint8_t> FrameSource::single_frame(UserId user, int host,
                                                    HostId to) {
  RequestBatch one;
  append(&one, user, host, Kind::kHot, to);
  return one.bytes;
}

LoopStats run_closed_loop(Rig& rig, RequestBatch& batch, int window,
                          double seconds, Inject inject, HandoffProbe* handoff) {
  constexpr unsigned kBatch = 64;
  constexpr std::size_t kBufSize = 2048;
  // The injected fault hits this reply of the loop.
  constexpr std::uint64_t kInjectAt = 1000;

  LoopStats stats;
  const int fd = rig.client().fd();
  const std::size_t total = batch.size();
  std::vector<std::array<std::uint8_t, kBufSize>> bufs(kBatch);
  std::array<mmsghdr, kBatch> rmsgs{};
  std::array<iovec, kBatch> riov{};
  for (unsigned j = 0; j < kBatch; ++j) {
    riov[j] = {bufs[j].data(), kBufSize};
    rmsgs[j].msg_hdr.msg_iov = &riov[j];
    rmsgs[j].msg_hdr.msg_iovlen = 1;
  }
  std::array<mmsghdr, kBatch> smsgs{};
  std::array<iovec, kBatch> siov{};
  std::vector<std::size_t> to_send;
  to_send.reserve(static_cast<std::size_t>(window) + kBatch);
  std::size_t outstanding = 0;

  // Sends every queued request, stamping each just before its syscall.
  auto flush = [&] {
    std::size_t done = 0;
    while (done < to_send.size()) {
      const unsigned n = static_cast<unsigned>(
          std::min<std::size_t>(kBatch, to_send.size() - done));
      for (unsigned j = 0; j < n; ++j) {
        const std::size_t i = to_send[done + j];
        siov[j] = {const_cast<std::uint8_t*>(batch.frame(i)), batch.frame_size};
        smsgs[j] = {};
        smsgs[j].msg_hdr.msg_iov = &siov[j];
        smsgs[j].msg_hdr.msg_iovlen = 1;
      }
      const std::int64_t stamp = rig.now_ns();
      const int sent = ::sendmmsg(fd, smsgs.data(), n, 0);
      if (sent <= 0) {
        if (errno == EINTR) continue;
        std::perror("perfbench: sendmmsg");
        std::exit(2);
      }
      for (int j = 0; j < sent; ++j) batch.sent_ns[to_send[done++]] = stamp;
    }
    outstanding += to_send.size();
    stats.sent += to_send.size();
    to_send.clear();
  };

  const auto t0 = SteadyClock::now();
  const auto deadline =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  const auto hard_stop = deadline + std::chrono::seconds(2);
  stats.start_ns = rig.to_fabric_ns(t0);
  stats.end_ns = stats.start_ns;
  std::size_t next = 0;
  while (next < total && to_send.size() < static_cast<std::size_t>(window)) {
    to_send.push_back(next++);
  }
  flush();

  std::uint64_t seen = 0;
  auto last_progress = t0;
  const auto& codec = net::CodecRegistry::global();
  while (outstanding > 0) {
    const int n = ::recvmmsg(fd, rmsgs.data(), kBatch, MSG_WAITFORONE, nullptr);
    const auto tnow = SteadyClock::now();
    if (n > 0) last_progress = tnow;
    const std::int64_t now_ns = rig.to_fabric_ns(tnow);
    const bool open = tnow < deadline;
    for (int j = 0; j < n; ++j) {
      const auto decoded = codec.decode(bufs[static_cast<std::size_t>(j)].data(),
                                        rmsgs[static_cast<std::size_t>(j)].msg_len);
      const auto* reply =
          decoded.ok()
              ? net::message_cast<proto::InvokeReply>(decoded.frame->msg)
              : nullptr;
      if (reply == nullptr || reply->request_id < batch.first_id ||
          reply->request_id >= batch.first_id + total) {
        ++stats.stray;
        continue;
      }
      const std::size_t i = reply->request_id - batch.first_id;
      if (batch.verdict[i] != 0) {
        ++stats.duplicates;
        continue;
      }
      ++seen;
      if (inject == Inject::kDropReply && seen == kInjectAt) continue;
      batch.verdict[i] = reply->accepted ? 1 : 2;
      batch.recv_ns[i] = now_ns;
      // A second copy of this reply would land on the duplicate check above.
      if (inject == Inject::kDupReply && seen == kInjectAt) ++stats.duplicates;
      --outstanding;
      ++stats.replies;
      stats.end_ns = now_ns;
      if (open) {
        if (next < total) {
          to_send.push_back(next++);
        } else {
          stats.exhausted = true;
        }
      }
      if (handoff != nullptr && handoff->every > 0 &&
          stats.replies % static_cast<std::uint64_t>(handoff->every) == 0) {
        const std::size_t slot = handoff->next.fetch_add(1);
        if (slot < handoff->posted_ns.size()) {
          const std::int64_t posted = rig.now_ns();
          handoff->posted_ns[slot] = posted;
          rig.host_env().post(
              [&rig, handoff, slot] { handoff->ran_ns[slot] = rig.now_ns(); });
        }
      }
    }
    if (!to_send.empty()) flush();
    if (tnow >= hard_stop || tnow - last_progress >= std::chrono::seconds(2)) {
      stats.timeouts += outstanding;
      break;
    }
  }
  return stats;
}

UpdateChains::UpdateChains(Rig& rig, std::vector<UserId> users, int chains,
                           std::uint64_t seed)
    : rig_(rig), users_(std::move(users)) {
  Rng rng(seed ^ 0xc4a1cULL);
  owned_.resize(static_cast<std::size_t>(chains));
  for (std::size_t i = 0; i < users_.size(); ++i) {
    owned_[i % owned_.size()].push_back(i);
  }
  for (auto& own : owned_) shuffle(own, rng);
  cursor_.assign(owned_.size(), 0);
  granted_.assign(users_.size(), true);
  rotation_ = rng.next_below(kManagers);
  events_.reserve(1 << 16);
}

void UpdateChains::start() {
  stop_.store(false);
  inflight_.store(static_cast<int>(owned_.size()));
  for (std::size_t c = 0; c < owned_.size(); ++c) {
    rig_.manager_env().post([this, c] { step(static_cast<int>(c)); });
  }
}

bool UpdateChains::stop_and_drain() {
  stop_.store(true);
  const auto deadline = SteadyClock::now() + std::chrono::seconds(10);
  while (inflight_.load() > 0) {
    if (SteadyClock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rig_.manager_env().run_sync([] {});  // makes events_ visible here
  return true;
}

void UpdateChains::step(int chain) {
  if (stop_.load()) {
    inflight_.fetch_sub(1);
    return;
  }
  auto& own = owned_[static_cast<std::size_t>(chain)];
  if (own.empty()) {
    inflight_.fetch_sub(1);
    return;
  }
  std::size_t& cursor = cursor_[static_cast<std::size_t>(chain)];
  const std::size_t ui = own[cursor++ % own.size()];
  const acl::Op op = granted_[ui] ? acl::Op::kRevoke : acl::Op::kAdd;
  const int mgr = static_cast<int>(rotation_++ % kManagers);
  const std::size_t ev = events_.size();
  events_.push_back(UpdateEvent{users_[ui], op, rig_.now_ns(), 0, -1, {}});
  rig_.manager(mgr).submit_update(
      kApp, op, users_[ui], acl::Right::kUse,
      [this, chain, ui, ev, op](const proto::UpdateOutcome& outcome) {
        UpdateEvent& e = events_[ev];
        e.quorum_ns = outcome.quorum_at.nanos_since_origin();
        e.done_ns = rig_.now_ns();
        e.version = outcome.update.version;
        granted_[ui] = op == acl::Op::kAdd;
        rig_.manager_env().post([this, chain] { step(chain); });
      });
}

VerdictTally check_verdicts(const RequestBatch& batch,
                            const std::vector<UpdateEvent>& events,
                            std::int64_t te_ns) {
  // Per churn user, its updates in order (each user's chain is sequential).
  std::unordered_map<std::uint32_t, std::vector<const UpdateEvent*>> by_user;
  for (const UpdateEvent& e : events) by_user[e.user.value()].push_back(&e);
  constexpr std::int64_t kForever = INT64_MAX;

  VerdictTally tally;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint8_t v = batch.verdict[i];
    if (v == 0) continue;
    const bool allowed = v == 1;
    if (batch.kind[i] != Kind::kChurn) {
      const bool ok = allowed == (batch.kind[i] == Kind::kHot);
      ++(ok ? tally.correct : tally.wrong);
      continue;
    }
    const std::int64_t s = batch.sent_ns[i];
    const std::int64_t r = batch.recv_ns[i];
    bool can_allow = false;
    bool can_deny = false;
    std::int64_t revoked_since = -1;  // quorum of the revoke in force at s
    const auto it = by_user.find(batch.user[i].value());
    static const std::vector<const UpdateEvent*> kNone;
    const auto& evs = it == by_user.end() ? kNone : it->second;
    // First update whose quorum is at or after s (the ones before are
    // settled by then).
    std::size_t k = static_cast<std::size_t>(
        std::lower_bound(evs.begin(), evs.end(), s,
                         [](const UpdateEvent* e, std::int64_t t) {
                           return e->done_ns >= 0 && e->quorum_ns < t;
                         }) -
        evs.begin());
    bool granted = k == 0 || evs[k - 1]->op == acl::Op::kAdd;
    std::int64_t from = k == 0 ? INT64_MIN : evs[k - 1]->quorum_ns;
    if (!granted) revoked_since = from;
    auto mark = [&](std::int64_t a, std::int64_t b, bool g, bool ambiguous) {
      if (a > r || b <= s) return;
      if (ambiguous || g) can_allow = true;
      if (ambiguous || !g) can_deny = true;
    };
    for (; k < evs.size() && evs[k]->submit_ns <= r; ++k) {
      mark(from, evs[k]->submit_ns, granted, false);
      const std::int64_t q = evs[k]->done_ns >= 0 ? evs[k]->quorum_ns : kForever;
      mark(evs[k]->submit_ns, q, granted, true);
      granted = evs[k]->op == acl::Op::kAdd;
      from = q;
    }
    mark(from, kForever, granted, false);
    if (allowed ? can_allow : can_deny) {
      ++tally.correct;
    } else if (allowed && revoked_since != -1 && s - revoked_since <= te_ns) {
      ++tally.stale_allows;
      ++tally.correct;
    } else if (allowed) {
      ++tally.te_violations;
    } else {
      ++tally.wrong;
    }
  }
  return tally;
}

}  // namespace perfbench
