#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "proto/access_controller.hpp"

namespace perfbench {

using namespace wan;

namespace {

std::uint64_t pair_key(std::uint32_t user, std::uint8_t host) {
  return (static_cast<std::uint64_t>(user) << 8) | host;
}

/// Pairs each answered request with its host decision. A host serves one
/// (user, host) pair's requests in arrival order, so the k-th decision for a
/// pair belongs to the k-th request of that pair whose window contains it.
class Matcher {
 public:
  explicit Matcher(const std::vector<DecisionRec>& decisions)
      : decisions_(decisions) {
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      by_pair_[pair_key(decisions[i].user, decisions[i].host)].push_back(i);
    }
  }

  /// Index into the decision log, or -1.
  std::int64_t match(const RequestBatch& batch, std::size_t i) {
    if (batch.verdict[i] == 0) return -1;
    const auto it = by_pair_.find(pair_key(batch.user[i].value(), batch.host[i]));
    if (it == by_pair_.end()) return -1;
    std::size_t& cur = cursor_[it->first];
    const auto& list = it->second;
    while (cur < list.size() &&
           decisions_[list[cur]].requested_ns < batch.sent_ns[i]) {
      ++cur;
    }
    if (cur >= list.size()) return -1;
    const DecisionRec& d = decisions_[list[cur]];
    if (d.decided_ns > batch.recv_ns[i]) return -1;
    return static_cast<std::int64_t>(list[cur++]);
  }

 private:
  const std::vector<DecisionRec>& decisions_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_pair_;
  std::unordered_map<std::uint64_t, std::size_t> cursor_;
};

}  // namespace

void TraceRecorder::start() {
  decisions_.clear();
  decisions_.reserve(1 << 20);
  answers_.clear();
  answers_.reserve(1 << 20);
  rig_.host_env().run_sync([this] {
    for (int h = 0; h < kHosts; ++h) {
      const auto host = static_cast<std::uint8_t>(h);
      rig_.controller(h).set_decision_observer(
          [this, host](const proto::AccessDecision& d) {
            const bool quorum = d.path == proto::DecisionPath::kQuorumGranted ||
                                d.path == proto::DecisionPath::kQuorumDenied;
            decisions_.push_back(DecisionRec{
                d.user.value(), host, d.allowed, quorum,
                d.requested.nanos_since_origin(), d.decided.nanos_since_origin(),
                d.basis_version});
          });
    }
  });
  rig_.manager_env().run_sync([this] {
    for (int m = 0; m < kManagers; ++m) {
      const auto manager = static_cast<std::uint8_t>(m);
      rig_.manager(m).set_response_observer(
          [this, manager](const proto::ManagerModule::QueryAnswerEvent& e) {
            answers_.push_back(AnswerRec{e.user.value(), manager, rig_.now_ns()});
          });
    }
  });
}

void TraceRecorder::stop() {
  rig_.host_env().run_sync([this] {
    for (int h = 0; h < kHosts; ++h) {
      rig_.controller(h).set_decision_observer(nullptr);
    }
  });
  rig_.manager_env().run_sync([this] {
    for (int m = 0; m < kManagers; ++m) {
      rig_.manager(m).set_response_observer(nullptr);
    }
  });
}

SelfTimes self_times(const std::vector<const RequestBatch*>& batches,
                     const std::vector<DecisionRec>& decisions) {
  Matcher matcher(decisions);
  std::vector<double> wire;
  std::vector<double> host;
  std::vector<double> quorum;
  SelfTimes out;
  for (const RequestBatch* batch : batches) {
    for (std::size_t i = 0; i < batch->size(); ++i) {
      if (batch->verdict[i] == 0) continue;
      const std::int64_t m = matcher.match(*batch, i);
      if (m < 0) {
        ++out.unmatched;
        continue;
      }
      const DecisionRec& d = decisions[static_cast<std::size_t>(m)];
      const double rtt = (batch->recv_ns[i] - batch->sent_ns[i]) * 1e-3;
      const double span = (d.decided_ns - d.requested_ns) * 1e-3;
      const double q = d.quorum ? span : 0.0;
      wire.push_back(rtt - span);
      host.push_back(span - q);
      quorum.push_back(q);
      ++out.matched;
    }
  }
  out.wire_us = median(wire);
  out.host_us = median(host);
  out.quorum_us = median(quorum);
  return out;
}

StaleLag stale_allow_lag(const std::vector<UpdateEvent>& events,
                         const std::vector<DecisionRec>& decisions) {
  std::unordered_map<std::uint64_t, std::vector<const DecisionRec*>> by_pair;
  for (const DecisionRec& d : decisions) {
    by_pair[pair_key(d.user, d.host)].push_back(&d);
  }
  std::unordered_map<std::uint32_t, std::vector<const UpdateEvent*>> by_user;
  for (const UpdateEvent& e : events) {
    if (e.done_ns >= 0) by_user[e.user.value()].push_back(&e);
  }
  auto decided_before = [](const DecisionRec* d, std::int64_t t) {
    return d->decided_ns < t;
  };

  std::vector<double> lags;
  StaleLag out;
  for (const auto& [user, evs] : by_user) {
    for (std::size_t k = 0; k < evs.size(); ++k) {
      const UpdateEvent& revoke = *evs[k];
      if (revoke.op != acl::Op::kRevoke) continue;
      const std::int64_t since = k > 0 ? evs[k - 1]->quorum_ns : INT64_MIN;
      const std::int64_t until =
          k + 1 < evs.size() ? evs[k + 1]->quorum_ns : INT64_MAX;
      for (int h = 0; h < kHosts; ++h) {
        const auto it = by_pair.find(pair_key(user, static_cast<std::uint8_t>(h)));
        if (it == by_pair.end()) continue;
        const auto& list = it->second;
        // Cached at the quorum: allowed at least once since the last grant.
        auto pos =
            std::lower_bound(list.begin(), list.end(), since, decided_before);
        bool cached = false;
        for (; pos != list.end() && (*pos)->decided_ns <= revoke.quorum_ns; ++pos) {
          cached = cached || (*pos)->allowed;
        }
        if (!cached) continue;
        double lag = 0.0;
        for (; pos != list.end() && (*pos)->decided_ns < until; ++pos) {
          if ((*pos)->allowed && (*pos)->basis < revoke.version) {
            lag = std::max(lag, ((*pos)->decided_ns - revoke.quorum_ns) * 1e-3);
          }
        }
        lags.push_back(lag);
        ++out.pairs;
        if (lag > 0) ++out.stale_pairs;
        out.max_us = std::max(out.max_us, lag);
      }
    }
  }
  out.p99_us = percentile(lags, 0.99);
  return out;
}

bool write_chrome_trace(const std::string& path, const RequestBatch& batch,
                        const TraceRecorder& recorder,
                        const std::vector<UpdateEvent>& events, std::size_t limit) {
  const std::vector<DecisionRec>& decisions = recorder.decisions();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  const char* const kThreads[] = {"driver", "host loop", "manager loop"};
  for (int tid = 1; tid <= 3; ++tid) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 tid > 1 ? ",\n" : "", tid, kThreads[tid - 1]);
  }
  auto span = [f](const char* name, int tid, std::int64_t start_ns,
                  std::int64_t end_ns, std::uint64_t id, std::uint32_t user) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"request\":%llu,\"user\":%u}}",
                 name, tid, start_ns * 1e-3, (end_ns - start_ns) * 1e-3,
                 static_cast<unsigned long long>(id), user);
  };
  Matcher matcher(decisions);
  const std::size_t n = std::min(limit, batch.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (batch.verdict[i] == 0) continue;
    const std::uint64_t id = batch.first_id + i;
    span("check.client", 1, batch.sent_ns[i], batch.recv_ns[i], id,
         batch.user[i].value());
    const std::int64_t m = matcher.match(batch, i);
    if (m < 0) continue;
    const DecisionRec& d = decisions[static_cast<std::size_t>(m)];
    span(d.quorum ? "check.host.quorum" : "check.host.hit", 2, d.requested_ns,
         d.decided_ns, id, d.user);
  }
  const std::int64_t begin = n > 0 ? batch.sent_ns[0] : 0;
  std::int64_t horizon = begin;
  for (std::size_t i = 0; i < n; ++i) horizon = std::max(horizon, batch.recv_ns[i]);
  for (const UpdateEvent& e : events) {
    if (e.done_ns < 0 || e.submit_ns < begin || e.submit_ns > horizon) continue;
    span(e.op == acl::Op::kRevoke ? "update.revoke" : "update.grant", 3,
         e.submit_ns, e.done_ns, e.version.counter, e.user.value());
  }
  for (const AnswerRec& a : recorder.answers()) {
    if (a.at_ns < begin || a.at_ns > horizon) continue;
    std::fprintf(f,
                 ",\n{\"name\":\"query.answer\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                 "\"tid\":3,\"ts\":%.3f,\"args\":{\"manager\":%u,\"user\":%u}}",
                 a.at_ns * 1e-3, static_cast<unsigned>(a.manager), a.user);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
