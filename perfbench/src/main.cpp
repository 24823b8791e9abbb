// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <hot_check|cold_check|revoke_mix> --seed N
//             --seconds S --trace <0|1> [--inject KIND] [--window W]
//             [--scratch-dir DIR] [--trace-out DIR] [--commit SHA]
//
// Builds the deployment of rig.hpp, drives it with the workload's seeded
// closed loop for S seconds in rounds of kRoundSeconds, checks every reply,
// and prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (medians over rounds);
// --trace 1 reports the per-layer metrics of perfbench/README.md.
// Exit status: 0 when every operation succeeded, 1 on any failure, 2 on a
// usage error.
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "load.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "proto/config.hpp"
#include "proto/wire.hpp"
#include "rig.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace wan;

constexpr double kRoundSeconds = 0.5;
constexpr double kWarmSeconds = 0.3;
constexpr int kSetups = 9;
/// Frames generated for the first round; later rounds get twice what the
/// fastest round so far would send in their time, within these limits.
constexpr std::size_t kMaxFramesPerRound = 400'000;
constexpr std::size_t kMinFramesPerRound = 20'000;
/// hot_check and cold_check spend this share of the run on an update phase:
/// the chains on users nobody checks, beside the workload's own check load,
/// which keeps the loops as busy as in the check phase. Its rounds give their
/// update metrics; revoke_mix runs its chains beside every round.
constexpr double kUpdatePhaseShare = 0.3;
constexpr double kTracedSeconds = 3.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Inject inject = Inject::kNone;
  int window = 0;
  std::string scratch_dir = ".perfbench-tmp";
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <hot_check|cold_check|revoke_mix> "
               "--seed N --seconds S --trace <0|1>\n"
               "                 [--inject "
               "drop_reply|dup_reply|grant_cold|revoke_hot]\n"
               "                 [--window W] [--scratch-dir DIR] "
               "[--trace-out DIR] [--commit SHA]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--inject") {
      if (value == "drop_reply") a.inject = Inject::kDropReply;
      else if (value == "dup_reply") a.inject = Inject::kDupReply;
      else if (value == "grant_cold") a.inject = Inject::kGrantCold;
      else if (value == "revoke_hot") a.inject = Inject::kRevokeHot;
      else usage("unknown --inject kind");
    } else if (flag == "--window") {
      a.window = std::atoi(value.c_str());
      if (a.window < 1) usage("--window must be positive");
    } else if (flag == "--scratch-dir") {
      a.scratch_dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::uint64_t transport_drops() {
  // Sum of every wan_udp_drops_total{reason=...} series.
  const std::string text = obs::Registry::global().prometheus_text();
  std::uint64_t total = 0;
  std::size_t pos = 0;
  const std::string key = "wan_udp_drops_total";
  while ((pos = text.find(key, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const std::size_t eol = text.find('\n', pos);
    if (line_start) {
      const std::size_t space = text.rfind(' ', eol);
      total += std::strtoull(text.c_str() + space + 1, nullptr, 10);
    }
    pos = eol == std::string::npos ? text.size() : eol;
  }
  return total;
}

/// Failure classes; each failed operation lands in exactly one.
struct Failures {
  std::uint64_t timeouts = 0;
  std::uint64_t wrong_verdicts = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t stray_replies = 0;
  std::uint64_t transport_drops = 0;
  std::uint64_t te_violations = 0;
  std::uint64_t update_timeouts = 0;
  std::uint64_t setup = 0;
  [[nodiscard]] std::uint64_t total() const {
    return timeouts + wrong_verdicts + duplicates + stray_replies +
           transport_drops + te_violations + update_timeouts + setup;
  }
};

struct Round {
  double checks_per_sec = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  std::size_t rtt_samples = 0;
  double updates_per_sec = 0;
  double update_p50_us = 0;
  double update_p99_us = 0;
  std::size_t update_samples = 0;
  std::uint64_t stale_allows = 0;
};

/// One run's rig, inputs and accounting.
class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        window_(args.window > 0 ? args.window : spec.window),
        pop_(make_population(spec, args.seed)),
        frames_(spec, pop_) {
    scratch_ = args.scratch_dir + "/run-" + std::to_string(::getpid());
    std::filesystem::create_directories(scratch_);
    // The warm-up requests are inputs too: generated before any timing.
    std::vector<UserId> warm_users = pop_.hot;
    for (const auto* set : {&pop_.churn, &pop_.probe_granted}) {
      warm_users.insert(warm_users.end(), set->begin(), set->end());
    }
    frames_.warm_batch(warm_users, Kind::kHot, &warm_);
    echo_frame_ =
        frames_.single_frame(pop_.probe_granted[0], 0, HostId(kEchoId));
  }

  ~Bench() {
    // The rig first: its loops stop before the chains their closures use.
    rig_.reset();
    chains_.reset();
    std::error_code ec;
    std::filesystem::remove_all(scratch_, ec);
  }

  /// Builds the rig kSetups times (grants + cache warm-up each time) and
  /// returns the median; the last rig stays up for the run.
  double setup() {
    std::vector<double> samples;
    for (int k = 0; k < kSetups; ++k) {
      rig_.reset();
      RigOptions opts;
      opts.users = pop_.all();
      opts.public_key = pop_.keys.public_key;
      if (spec_.journals) {
        opts.journal_dir = scratch_ + "/journal-" + std::to_string(k);
        std::error_code ec;
        std::filesystem::remove_all(opts.journal_dir, ec);
        std::filesystem::create_directories(opts.journal_dir);
      }
      const auto t0 = SteadyClock::now();
      rig_ = std::make_unique<Rig>(opts);
      const bool granted =
          rig_->apply_updates(acl::Op::kAdd, pop_.granted_at_setup());
      std::fill(warm_.verdict.begin(), warm_.verdict.end(), 0);
      const LoopStats warm =
          run_closed_loop(*rig_, warm_, 64, 3600.0, Inject::kNone, nullptr);
      const auto t1 = SteadyClock::now();
      samples.push_back(std::chrono::duration<double>(t1 - t0).count());
      const VerdictTally tally = check_verdicts(warm_, {}, 0);
      if (!granted || warm.timeouts > 0 || tally.wrong > 0) {
        std::fprintf(stderr,
                     "perfbench: set-up %d failed (granted=%d timeouts=%llu "
                     "wrong=%llu)\n",
                     k, granted ? 1 : 0,
                     static_cast<unsigned long long>(warm.timeouts),
                     static_cast<unsigned long long>(tally.wrong));
        ++failures_.setup;
      }
    }
    const std::vector<UserId>& chain_users =
        spec_.mixed ? pop_.churn : pop_.updaters;
    chains_ = std::make_unique<UpdateChains>(*rig_, chain_users,
                                             spec_.update_chains, args_.seed);
    drops0_ = transport_drops();
    pin_threads();
    return median(samples);
  }

  /// One closed-loop round of checks, with the update chains beside it
  /// when `updates` is set. `keep` receives the batch when non-null.
  Round check_round(double seconds, bool updates, Inject inject,
                    HandoffProbe* handoff, std::vector<RequestBatch>* keep) {
    RequestBatch batch;
    frames_.next_batch(frame_budget(seconds), &batch);
    const std::size_t ev0 = chains_->events().size();
    const std::int64_t t_start = rig_->now_ns();
    if (updates) chains_->start();
    const LoopStats stats =
        run_closed_loop(*rig_, batch, window_, seconds, inject, handoff);
    const std::int64_t t_stop = rig_->now_ns();
    if (updates && !chains_->stop_and_drain()) ++failures_.update_timeouts;
    if (stats.seconds() > 0) {
      max_rate_ = std::max(max_rate_, static_cast<double>(stats.sent) /
                                          stats.seconds());
    }
    if (stats.exhausted) {
      std::printf("# note: round used all %zu pre-generated frames\n",
                  batch.size());
    }

    const VerdictTally tally = check_verdicts(batch, chains_->events(), te_ns());
    attempted_ += stats.sent;
    failures_.timeouts += stats.timeouts;
    failures_.duplicates += stats.duplicates;
    failures_.stray_replies += stats.stray;
    failures_.wrong_verdicts += tally.wrong;
    failures_.te_violations += tally.te_violations;

    Round r;
    std::vector<double> rtt;
    rtt.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch.verdict[i] == 0) continue;
      rtt.push_back((batch.recv_ns[i] - batch.sent_ns[i]) * 1e-3);
    }
    r.checks_per_sec = static_cast<double>(tally.correct) / stats.seconds();
    r.rtt_p50_us = percentile(rtt, 0.50);
    r.rtt_p99_us = percentile(rtt, 0.99);
    r.rtt_samples = rtt.size();
    r.stale_allows = tally.stale_allows;
    if (updates) update_stats(ev0, t_start, t_stop, &r);
    if (keep != nullptr) keep->push_back(std::move(batch));
    return r;
  }

  /// Applies --inject kinds that act on the deployment rather than the driver.
  void inject_state_fault(Inject inject) {
    if (inject == Inject::kGrantCold) {
      rig_->apply_updates(acl::Op::kAdd, {pop_.cold[0]});
    }
    if (inject == Inject::kRevokeHot) {
      rig_->apply_updates(acl::Op::kRevoke, {pop_.hot[0]});
    }
  }

  void finish_accounting() {
    failures_.transport_drops = transport_drops() - drops0_;
  }

  [[nodiscard]] Rig& rig() { return *rig_; }
  [[nodiscard]] UpdateChains& chains() { return *chains_; }
  [[nodiscard]] const Population& population() const { return pop_; }
  [[nodiscard]] const Failures& failures() const { return failures_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] int window() const { return window_; }
  [[nodiscard]] const std::string& scratch() const { return scratch_; }
  [[nodiscard]] const std::vector<std::uint8_t>& echo_frame() const {
    return echo_frame_;
  }

 private:
  /// One CPU per busy thread: driver, reactor, host loop, manager loop.
  void pin_threads() {
    const int driver = current_tid();
    int reactor = 0;
    for (const int tid : thread_ids()) {
      if (tid != driver && tid != rig_->manager_tid() &&
          tid != rig_->host_tid()) {
        reactor = tid;
      }
    }
    const int tids[4] = {driver, reactor, rig_->host_tid(), rig_->manager_tid()};
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (int i = 0; i < 4; ++i) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(i % cpus, &set);
      ::sched_setaffinity(tids[i], sizeof(set), &set);
    }
  }

  static std::int64_t te_ns() {
    return proto::ProtocolConfig{}.Te.count_nanos();
  }

  std::size_t frame_budget(double seconds) const {
    if (max_rate_ == 0) return kMaxFramesPerRound;
    return std::clamp(static_cast<std::size_t>(2 * max_rate_ * seconds),
                      kMinFramesPerRound, kMaxFramesPerRound);
  }

  void update_stats(std::size_t ev0, std::int64_t t_start, std::int64_t t_stop,
                    Round* r) {
    const auto& events = chains_->events();
    std::vector<double> rtt;
    std::size_t in_window = 0;
    for (std::size_t k = ev0; k < events.size(); ++k) {
      const UpdateEvent& e = events[k];
      if (e.done_ns < 0) {
        ++failures_.update_timeouts;
        continue;
      }
      rtt.push_back((e.done_ns - e.submit_ns) * 1e-3);
      if (e.done_ns <= t_stop) ++in_window;
    }
    attempted_ += events.size() - ev0;
    r->updates_per_sec =
        static_cast<double>(in_window) / ((t_stop - t_start) * 1e-9);
    r->update_p50_us = percentile(rtt, 0.50);
    r->update_p99_us = percentile(rtt, 0.99);
    r->update_samples = rtt.size();
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  const int window_;
  Population pop_;
  FrameSource frames_;
  RequestBatch warm_;
  std::vector<std::uint8_t> echo_frame_;
  std::string scratch_;
  std::unique_ptr<Rig> rig_;
  std::unique_ptr<UpdateChains> chains_;
  Failures failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t drops0_ = 0;
  double max_rate_ = 0;  ///< requests per second, fastest round so far
};

double median_of(const std::vector<Round>& rounds, double Round::*field) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(r.*field);
  return median(v);
}

std::size_t sum_of(const std::vector<Round>& rounds,
                   std::size_t Round::*field) {
  std::size_t n = 0;
  for (const Round& r : rounds) n += r.*field;
  return n;
}

void print_stamp(const Args& args, const WorkloadSpec& spec, int window) {
  utsname un{};
  ::uname(&un);
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# env nproc=%ld build=%s kernel=%s %s commit=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), build.c_str(), un.sysname,
              un.release, args.commit.c_str());
  std::printf("# rig reactor thread + 1 loop (3 managers) + 1 loop (4 hosts) "
              "+ driver; M=%d C=%d W=%d chains=%d hot=%d cold=%d churn=%d "
              "churn_share=%.2f journals=%d round_s=%.2f\n",
              kManagers, kCheckQuorum, window, spec.update_chains,
              spec.hot_users, spec.cold_users, spec.churn_users,
              spec.churn_share, spec.journals ? 1 : 0, kRoundSeconds);
  std::printf("# committed W:");
  for (const char* name : {"hot_check", "cold_check", "revoke_mix"}) {
    std::printf(" %s=%d", name, find_workload(name)->window);
  }
  std::printf("\n");
  if (build != "Release") {
    std::printf("# WARNING: %s build, not Release: these numbers are not "
                "comparable\n",
                build.c_str());
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release\n",
                 build.c_str());
  }
}

void print_failures(const Failures& f) {
  std::printf("# failures timeouts=%llu wrong_verdicts=%llu duplicates=%llu "
              "stray=%llu transport_drops=%llu te_violations=%llu "
              "update_timeouts=%llu setup=%llu\n",
              static_cast<unsigned long long>(f.timeouts),
              static_cast<unsigned long long>(f.wrong_verdicts),
              static_cast<unsigned long long>(f.duplicates),
              static_cast<unsigned long long>(f.stray_replies),
              static_cast<unsigned long long>(f.transport_drops),
              static_cast<unsigned long long>(f.te_violations),
              static_cast<unsigned long long>(f.update_timeouts),
              static_cast<unsigned long long>(f.setup));
}

int emit_result(const Failures& f, std::uint64_t attempted,
                const std::vector<Metric>& metrics) {
  print_failures(f);
  const bool ok = f.total() == 0;
  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(f.total());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

/// Rounds of kRoundSeconds in `seconds`, at least one.
int rounds_in(double seconds) {
  return std::max(1, static_cast<int>(seconds / kRoundSeconds + 0.5));
}

/// Per-thread CPU over a phase: driver, manager loop, host loop, reactor.
struct BusySampler {
  explicit BusySampler(Rig& rig) : rig_(rig) {
    tids_ = {current_tid(), rig.manager_tid(), rig.host_tid(), 0};
    for (const int tid : thread_ids()) {
      if (tid != tids_[0] && tid != tids_[1] && tid != tids_[2]) tids_[3] = tid;
    }
    for (std::size_t i = 0; i < 4; ++i) cpu0_[i] = thread_cpu_ns(tids_[i]);
    wall0_ = rig.now_ns();
  }
  /// Busy share of each thread since construction.
  std::array<double, 4> shares() const {
    std::array<double, 4> out{};
    const double wall = static_cast<double>(rig_.now_ns() - wall0_);
    for (std::size_t i = 0; i < 4; ++i) {
      out[i] = static_cast<double>(thread_cpu_ns(tids_[i]) - cpu0_[i]) / wall;
    }
    return out;
  }

  Rig& rig_;
  std::array<int, 4> tids_{};
  std::array<std::int64_t, 4> cpu0_{};
  std::int64_t wall0_ = 0;
};

/// The measured rounds of one run and what its check rounds cost.
struct Phase {
  std::vector<Round> checks;   ///< check metrics come from these rounds
  std::vector<Round> updates;  ///< update metrics: `checks` on revoke_mix
  /// Busy share of the driver, manager loop, host loop and reactor.
  std::array<double, 4> busy{};
  double frames_per_check = 0;
  double posts_per_check = 0;
  double cpu_us_per_check = 0;
};

/// `seconds` of rounds: on revoke_mix every round runs checks and updates;
/// hot_check and cold_check run check rounds, then kUpdatePhaseShare of the
/// time as rounds with the update chains beside the checks. Driver faults
/// hit the first round; state faults land before the second.
Phase measure(Bench& bench, const WorkloadSpec& spec, double seconds,
              Inject inject) {
  const Inject driver_fault =
      inject == Inject::kDropReply || inject == Inject::kDupReply
          ? inject
          : Inject::kNone;
  const double update_seconds = spec.mixed ? 0.0 : seconds * kUpdatePhaseShare;
  const int check_rounds = rounds_in(seconds - update_seconds);
  const int update_rounds = spec.mixed ? 0 : rounds_in(update_seconds);

  auto& registry = obs::Registry::global();
  auto& frames = registry.counter("wan_udp_frames_sent_total");
  auto& posts = registry.counter("wan_env_posts_total{env=\"threaded\"}");
  const std::uint64_t frames0 = frames.value();
  const std::uint64_t posts0 = posts.value();
  const double cpu0 = process_cpu_us();
  Phase phase;
  BusySampler sampler(bench.rig());
  for (int i = 0; i < check_rounds; ++i) {
    if (i == 1) bench.inject_state_fault(inject);
    phase.checks.push_back(bench.check_round(kRoundSeconds, spec.mixed,
                                             i == 0 ? driver_fault : Inject::kNone,
                                             nullptr, nullptr));
  }
  phase.busy = sampler.shares();
  const double checks = std::max(
      1.0, static_cast<double>(sum_of(phase.checks, &Round::rtt_samples)));
  phase.cpu_us_per_check = (process_cpu_us() - cpu0) / checks;
  phase.frames_per_check =
      static_cast<double>(frames.value() - frames0) / checks;
  phase.posts_per_check = static_cast<double>(posts.value() - posts0) / checks;
  for (int i = 0; i < update_rounds; ++i) {
    phase.updates.push_back(
        bench.check_round(kRoundSeconds, true, Inject::kNone, nullptr, nullptr));
  }
  if (spec.mixed) phase.updates = phase.checks;

  std::printf("# samples check_rtt=%zu over %zu rounds, update_rtt=%zu over "
              "%zu rounds\n",
              sum_of(phase.checks, &Round::rtt_samples), phase.checks.size(),
              sum_of(phase.updates, &Round::update_samples), phase.updates.size());
  std::printf("# rounds checks_per_sec:");
  for (const Round& r : phase.checks) std::printf(" %.0f", r.checks_per_sec);
  std::printf("\n# rounds check_rtt_p99_us:");
  for (const Round& r : phase.checks) std::printf(" %.0f", r.rtt_p99_us);
  std::printf("\n");
  if (spec.mixed) {
    std::uint64_t stale = 0;
    for (const Round& r : phase.checks) stale += r.stale_allows;
    std::printf("# stale allows within Te: %llu\n",
                static_cast<unsigned long long>(stale));
  }
  return phase;
}

int run(const Args& args, const WorkloadSpec& spec) {
  if (args.inject == Inject::kGrantCold && spec.cold_users == 0) {
    usage("--inject grant_cold needs a workload with cold users (cold_check)");
  }
  if (args.inject == Inject::kRevokeHot && spec.hot_users == 0) {
    usage("--inject revoke_hot needs a workload with hot users");
  }
  Bench bench(args, spec);
  print_stamp(args, spec, bench.window());
  const double setup_s = bench.setup();
  Rig& rig = bench.rig();
  std::printf("# rig threads=%zu (nproc %ld)\n", thread_ids().size(),
              ::sysconf(_SC_NPROCESSORS_ONLN));
  (void)bench.check_round(kWarmSeconds, spec.mixed, Inject::kNone, nullptr,
                          nullptr);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Phase phase = measure(bench, spec, args.seconds, args.inject);
    bench.finish_accounting();
    const double floor_us =
        udp_floor_rtt_p50_us(bench.echo_frame().size(), 2000);
    const double echo_us =
        fabric_echo_rtt_p50_us(rig, bench.echo_frame(), 2000);
    const double p50 = median_of(phase.checks, &Round::rtt_p50_us);
    std::printf("# floor udp_rtt_p50_us=%.2f fabric_echo_rtt_p50_us=%.2f "
                "check_rtt_p50_over_udp_floor=%.2f\n",
                floor_us, echo_us, floor_us > 0 ? p50 / floor_us : 0.0);
    std::printf("# check_rtt_p99_us=%.1f update_rtt_p99_us=%.1f (per-layer "
                "metrics proto.check_rtt_p99_us, proto.update_rtt_p99_us)\n",
                median_of(phase.checks, &Round::rtt_p99_us),
                median_of(phase.updates, &Round::update_p99_us));
    metrics = {
        {"checks_per_sec",
         median_of(phase.checks, &Round::checks_per_sec), "1/s"},
        {"check_rtt_p50_us", p50, "us"},
        {"updates_per_sec",
         median_of(phase.updates, &Round::updates_per_sec), "1/s"},
        {"update_rtt_p50_us",
         median_of(phase.updates, &Round::update_p50_us), "us"},
        {"setup_s", setup_s, "s"},
    };
    return emit_result(bench.failures(), bench.attempted(), metrics);
  }

  // Traced run. The traced phase keeps every request and decision in
  // memory, so it is capped at kTracedSeconds; the untraced reference phase
  // before it gets the rest.
  const double traced_seconds = std::min(kTracedSeconds, args.seconds / 2);
  const int traced_rounds = rounds_in(traced_seconds);
  const Phase reference =
      measure(bench, spec, args.seconds - traced_seconds, args.inject);

  // Traced phase: decision and response observers on, hand-off sampling.
  TraceRecorder recorder(rig);
  HandoffProbe handoff;
  handoff.every = 64;
  handoff.posted_ns.assign(1 << 16, 0);
  handoff.ran_ns.assign(1 << 16, 0);
  std::vector<RequestBatch> kept;
  std::vector<Round> traced;
  const std::size_t ev0 = bench.chains().events().size();
  recorder.start();
  for (int i = 0; i < traced_rounds; ++i) {
    traced.push_back(bench.check_round(kRoundSeconds, spec.mixed, Inject::kNone,
                                       &handoff, &kept));
  }
  recorder.stop();
  rig.host_env().run_sync([] {});  // every hand-off sample has run
  bench.finish_accounting();

  std::vector<double> handoff_us;
  const std::size_t samples =
      std::min(handoff.next.load(), handoff.posted_ns.size());
  for (std::size_t i = 0; i < samples; ++i) {
    handoff_us.push_back((handoff.ran_ns[i] - handoff.posted_ns[i]) * 1e-3);
  }
  std::vector<const RequestBatch*> kept_ptrs;
  for (const RequestBatch& b : kept) kept_ptrs.push_back(&b);
  const SelfTimes self = self_times(kept_ptrs, recorder.decisions());
  const std::vector<UpdateEvent> traced_events(
      bench.chains().events().begin() + static_cast<std::ptrdiff_t>(ev0),
      bench.chains().events().end());
  const StaleLag lag = stale_allow_lag(traced_events, recorder.decisions());
  const double ref_p50 = median_of(reference.checks, &Round::rtt_p50_us);
  const double ref_cps =
      median_of(reference.checks, &Round::checks_per_sec);
  const double tr_p50 = median_of(traced, &Round::rtt_p50_us);
  const double tr_cps = median_of(traced, &Round::checks_per_sec);
  std::printf("# traced: %zu checks matched to host decisions, %zu unmatched; "
              "%zu decisions, %zu manager answers\n",
              self.matched, self.unmatched, recorder.decisions().size(),
              recorder.answers().size());
  std::printf("# stale-allow lag: %zu (revocation, cached host) pairs, %zu "
              "with a stale allow, max %.1f us\n",
              lag.pairs, lag.stale_pairs, lag.max_us);
  if (!args.trace_out.empty() && !kept.empty()) {
    std::filesystem::create_directories(args.trace_out);
    const std::string path = args.trace_out + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (write_chrome_trace(path, kept.front(), recorder, traced_events,
                           20'000)) {
      std::printf("# chrome trace: %s\n", path.c_str());
    }
  }
  kept.clear();

  // Probes on the now idle rig.
  const double floor_us = udp_floor_rtt_p50_us(bench.echo_frame().size(), 2000);
  const double echo_us = fabric_echo_rtt_p50_us(rig, bench.echo_frame(), 2000);
  const double floor_ratio = floor_us > 0 ? ref_p50 / floor_us : 0.0;
  std::printf("# floor udp_rtt_p50_us=%.2f fabric_echo_rtt_p50_us=%.2f "
              "check_rtt_p50_over_udp_floor=%.2f\n",
              floor_us, echo_us, floor_ratio);
  metrics = {
      {"runtime.udp_floor_rtt_p50_us", floor_us, "us"},
      {"runtime.fabric_echo_rtt_p50_us", echo_us, "us"},
      {"runtime.rtt_over_udp_floor", floor_ratio, "ratio"},
      {"runtime.handoff_p50_us", percentile(handoff_us, 0.50), "us"},
      {"runtime.handoff_p99_us", percentile(handoff_us, 0.99), "us"},
      {"runtime.frames_per_check", reference.frames_per_check, "count"},
      {"runtime.posts_per_check", reference.posts_per_check, "count"},
      {"runtime.driver_busy_share", reference.busy[0], "share"},
      {"runtime.manager_loop_busy_share", reference.busy[1], "share"},
      {"runtime.host_loop_busy_share", reference.busy[2], "share"},
      {"runtime.reactor_busy_share", reference.busy[3], "share"},
  };
  codec_probes(&metrics);
  module_probes(&metrics);
  proto_probes(rig, bench.population(), bench.scratch(), &metrics);
  const double explained = self.wire_us + self.host_us + self.quorum_us;
  metrics.push_back({"proto.stale_allow_lag_p99_us", lag.p99_us, "us"});
  metrics.push_back({"self.check.wire_us", self.wire_us, "us"});
  metrics.push_back({"self.check.host_us", self.host_us, "us"});
  metrics.push_back({"self.check.quorum_us", self.quorum_us, "us"});
  metrics.push_back({"self.check.unexplained_us", ref_p50 - explained, "us"});
  metrics.push_back(
      {"process.cpu_us_per_check", reference.cpu_us_per_check, "us"});
  metrics.push_back({"proto.check_rtt_p99_us",
                     median_of(reference.checks, &Round::rtt_p99_us), "us"});
  metrics.push_back({"proto.update_rtt_p99_us",
                     median_of(reference.updates, &Round::update_p99_us), "us"});
  metrics.push_back({"trace.overhead_rtt_p50_us", tr_p50 - ref_p50, "us"});
  metrics.push_back({"trace.overhead_checks_per_sec_share",
                     ref_cps > 0 ? (ref_cps - tr_cps) / ref_cps : 0.0, "share"});
  std::printf("# self.check: wire %.2f + host %.2f + quorum %.2f = %.2f us "
              "vs untraced check_rtt_p50 %.2f us (traced %.2f us)\n",
              self.wire_us, self.host_us, self.quorum_us, explained, ref_p50,
              tr_p50);
  return emit_result(bench.failures(), bench.attempted(), metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  wan::proto::register_wire_messages();
  const perfbench::WorkloadSpec* spec =
      perfbench::find_workload(args.workload);
  if (spec == nullptr) {
    perfbench::usage(("unknown workload " + args.workload).c_str());
  }
  return perfbench::run(args, *spec);
}
