// The traced run's span sources, all outside src/: the driver's own stamps,
// every host's decision observer and every manager's response observer.
// Spans stay in memory; the self-time split and the Chrome trace are
// computed from them after the load stops.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acl/version.hpp"
#include "load.hpp"
#include "rig.hpp"

namespace perfbench {

/// One access decision, as AccessController::set_decision_observer sees it.
struct DecisionRec {
  std::uint32_t user = 0;
  std::uint8_t host = 0;
  bool allowed = false;
  bool quorum = false;  ///< decided by a check quorum, not the cache
  std::int64_t requested_ns = 0;
  std::int64_t decided_ns = 0;
  wan::acl::Version basis{};
};

/// One QueryResponse a manager sent.
struct AnswerRec {
  std::uint32_t user = 0;
  std::uint8_t manager = 0;
  std::int64_t at_ns = 0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(Rig& rig) : rig_(rig) {}
  /// Installs the observers (blocks until both loops run them).
  void start();
  /// Removes the observers; the logs are readable afterwards.
  void stop();

  [[nodiscard]] const std::vector<DecisionRec>& decisions() const {
    return decisions_;
  }
  [[nodiscard]] const std::vector<AnswerRec>& answers() const { return answers_; }

 private:
  Rig& rig_;
  std::vector<DecisionRec> decisions_;  ///< host loop only while started
  std::vector<AnswerRec> answers_;      ///< manager loop only while started
};

/// Medians of each check's split of its client round trip:
///   wire   = client RTT - host span (requested -> decided);
///   host   = host span - quorum span;
///   quorum = the host span of a quorum-path decision (0 on a cache hit).
struct SelfTimes {
  double wire_us = 0;
  double host_us = 0;
  double quorum_us = 0;
  std::size_t matched = 0;
  std::size_t unmatched = 0;
};

SelfTimes self_times(const std::vector<const RequestBatch*>& batches,
                     const std::vector<DecisionRec>& decisions);

/// p99 over (revocation, host that had the user cached) of the time from the
/// revocation's quorum to the last allow at that host decided on
/// pre-revocation information; 0 for a pair with no such allow.
struct StaleLag {
  double p99_us = 0;
  double max_us = 0;
  std::size_t pairs = 0;
  std::size_t stale_pairs = 0;
};

StaleLag stale_allow_lag(const std::vector<UpdateEvent>& events,
                         const std::vector<DecisionRec>& decisions);

/// Writes a Chrome trace_event file covering the first `limit` checks of
/// `batch`: client and host spans, manager answers as instants, and the
/// update spans of `events` in that window.
bool write_chrome_trace(const std::string& path, const RequestBatch& batch,
                        const TraceRecorder& recorder,
                        const std::vector<UpdateEvent>& events, std::size_t limit);

}  // namespace perfbench
