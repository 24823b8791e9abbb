// LoopCore: the event queue at the heart of every real-time node loop — a
// FIFO ready lane for work that is due when it is posted, and a binary heap
// of future-dated timers.
//
// Extracted from ThreadedEnv (where it began life as a private nested struct)
// so that transports living outside the env — the socket transport's reactor
// thread in particular — can enqueue deliveries onto a node's loop without
// knowing anything else about the env that drives it.
//
// A LoopCore is shared by shared_ptr between its env, its timers, and
// whatever fabric delivers into it; every post on a stopped core returns
// false and drops the work, which is exactly how a delivery to a crashed
// node should behave. One thread calls run_loop(); everything posted runs
// serialized on that thread.
//
// Two queues, one order. Every entry is stamped (at, seq) under `mu`, seq
// from one counter. post(), post_batch() and deliveries with no delay are
// due when posted: they are stamped with the current time and appended to
// `lane`, which therefore stays sorted. post_at() (timers) and deliver_at()
// (delayed loopback deliveries) push onto `heap`. A pass merges the two by
// (at, seq), which is the order one heap of everything would give. Socket
// deliveries never touch the heap, whatever number of timers it holds.
//
// Deliveries are plain Delivery structs (shared handler, sender, message)
// run as (*handler)(from, msg), not closures: nothing is allocated per
// frame. post_batch() is the socket transport's hand-off: the frames of one
// recvmmsg batch for this loop are appended under one lock hold with one
// notify_one.
//
// Cancelled timers: a cancelled timer only sets its `dead` flag; its entry
// stays where it is. Two things keep the heap from filling with them. A
// pass also takes the cancelled entries at the top of the heap, due or not,
// so the loop never sleeps until a dead deadline. And when a push brings
// the heap to `purge_at` entries, every dead entry is dropped, the heap is
// rebuilt, and purge_at becomes max(kMinPurge, 2 × live entries): O(1)
// amortised per push. Both count wan_env_timer_purged_total.
//
// Passes: run_loop() works in passes. A pass is all of the lane plus every
// heap entry that is due (or cancelled, at the top) when the loop takes its
// lock; all of them are moved out under that one lock hold and then run in
// (at, seq) order, each entry's `dead` flag checked as it runs. Work posted
// while a pass runs lands in a later pass. While a pass runs, the thread's
// Pass state is active, so a sender may stage what the pass sends
// (SocketTransport stages encoded frames) and arm Pass::flush; end_pass()
// calls the flush when the pass ends, and run_loop() ends a pass before it
// waits and before it returns. A frame sent early in a pass thus leaves
// when the pass ends, never later, however busy the loop stays.
//
// Stopping: once `stopped` is set the loop runs no further entry, not even
// the rest of its current pass. run_loop() moves everything still queued,
// and the rest of the pass, out under the lock and destroys it outside the
// lock before returning, so queued closures (timer states holding the core
// itself) are released rather than kept alive in a cycle. Entries dropped
// by a purge are likewise destroyed outside the lock.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/env.hpp"

namespace wan::runtime {

struct LoopCore {
  using SteadyClock = std::chrono::steady_clock;
  using SteadyTP = SteadyClock::time_point;

  /// One inbound datagram for an endpoint on this loop.
  struct Delivery {
    /// Shared with the endpoint, so a re-attach never pulls the handler out
    /// from under a queued delivery.
    std::shared_ptr<const Transport::Handler> handler;
    HostId from;
    net::MessagePtr msg;
  };

  struct Entry {
    SteadyTP at;
    std::uint64_t seq = 0;
    /// The work: `fn` when set, else `delivery`.
    std::function<void()> fn;
    /// Set true to cancel; also flipped by timer shots when they fire so
    /// Timer::pending() stays accurate. Null for fire-and-forget work.
    std::shared_ptr<std::atomic<bool>> dead;
    Delivery delivery;

    [[nodiscard]] bool cancelled() const noexcept {
      return dead && dead->load(std::memory_order_acquire);
    }
    void run() {
      if (fn) {
        fn();
      } else {
        (*delivery.handler)(delivery.from, delivery.msg);
      }
    }
  };
  /// Heap order: the entry due first (lowest (at, seq)) on top.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// The heap size below which no purge runs.
  static constexpr std::size_t kMinPurge = 1024;

  /// The calling thread's pass state (see the header comment). `flush` is
  /// armed by a sender that staged work during the pass and is called once,
  /// by end_pass().
  struct Pass {
    bool active = false;
    void (*flush)() = nullptr;
  };

  static Pass& this_thread_pass() noexcept {
    static thread_local Pass pass;
    return pass;
  }

  /// Ends the calling thread's pass and runs the flush armed during it.
  static void end_pass() {
    Pass& pass = this_thread_pass();
    pass.active = false;
    if (void (*flush)() = std::exchange(pass.flush, nullptr)) flush();
  }

  explicit LoopCore(SteadyTP epoch) : epoch(epoch) {}

  const SteadyTP epoch;
  std::mutex mu;
  std::condition_variable cv;
  /// Due-when-posted work in (at, seq) order (mu).
  std::vector<Entry> lane;
  /// Future-dated entries, a binary heap under Later (mu).
  std::vector<Entry> heap;
  /// The heap size at which the next push purges cancelled entries (mu).
  std::size_t purge_at = kMinPurge;
  std::uint64_t next_seq = 0;  ///< mu
  /// Written under mu; also read without it between the entries of a pass.
  std::atomic<bool> stopped{false};

  /// Enqueues `fn`, due now, at the back of the ready lane. Returns false
  /// (dropping it) if the loop has stopped.
  static bool post(const std::shared_ptr<LoopCore>& core,
                   std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(core->mu);
      if (core->stopped) return false;
      core->lane.push_back(Entry{SteadyClock::now(), core->next_seq++,
                                 std::move(fn), nullptr, {}});
    }
    core->cv.notify_one();
    return true;
  }

  /// Enqueues every delivery of `batch`, due now and in order, under one
  /// lock hold with one notify_one. The deliveries are moved out of `batch`
  /// (the caller keeps the storage). Returns false, dropping the whole
  /// batch, if the loop has stopped.
  static bool post_batch(const std::shared_ptr<LoopCore>& core,
                         std::span<Delivery> batch) {
    {
      std::lock_guard<std::mutex> lock(core->mu);
      if (core->stopped) return false;
      const SteadyTP now = SteadyClock::now();
      for (Delivery& delivery : batch) {
        core->lane.push_back(
            Entry{now, core->next_seq++, {}, nullptr, std::move(delivery)});
      }
    }
    core->cv.notify_one();
    return true;
  }

  /// Schedules `fn` at `at` (a timer shot); returns false (dropping it) if
  /// the loop has stopped.
  static bool post_at(const std::shared_ptr<LoopCore>& core, SteadyTP at,
                      std::function<void()> fn,
                      std::shared_ptr<std::atomic<bool>> dead = nullptr) {
    return core->push(Entry{at, 0, std::move(fn), std::move(dead), {}});
  }

  /// Schedules one delivery at `at` (a delayed loopback datagram).
  static bool deliver_at(const std::shared_ptr<LoopCore>& core, SteadyTP at,
                         Delivery delivery) {
    return core->push(Entry{at, 0, {}, nullptr, std::move(delivery)});
  }

  void run_loop() {
    std::vector<Entry> ready;  // this pass's share of the lane
    std::vector<Entry> due;    // and of the heap, in (at, seq) order
    std::unique_lock<std::mutex> lock(mu);
    while (!stopped) {
      const SteadyTP now = SteadyClock::now();
      // Due entries, and cancelled ones at the top whatever their time, are
      // moved out before any callback runs, so re-entrant posting is safe
      // (and lands in a later pass).
      std::size_t early = 0;  // cancelled entries taken before they fall due
      while (!heap.empty()) {
        if (heap.front().at > now) {
          if (!heap.front().cancelled()) break;
          ++early;
        }
        std::pop_heap(heap.begin(), heap.end(), Later{});
        due.push_back(std::move(heap.back()));
        heap.pop_back();
      }
      if (lane.empty() && due.empty()) {
        if (heap.empty()) {
          cv.wait(lock);
        } else {
          const SteadyTP next = heap.front().at;  // a copy: the wait unlocks
          cv.wait_until(lock, next);
        }
        continue;
      }
      ready.swap(lane);
      lock.unlock();
      if (early > 0) timer_purged().inc(early);
      this_thread_pass().active = true;
      std::size_t r = 0;
      std::size_t d = 0;
      while ((r < ready.size() || d < due.size()) &&
             !stopped.load(std::memory_order_acquire)) {
        const bool from_lane =
            d == due.size() ||
            (r < ready.size() && Later{}(due[d], ready[r]));
        Entry& entry = from_lane ? ready[r++] : due[d++];
        if (!entry.cancelled()) entry.run();
      }
      end_pass();
      if (r < ready.size() || d < due.size()) break;  // stopped mid-pass
      ready.clear();
      due.clear();
      lock.lock();
    }
    if (!lock.owns_lock()) lock.lock();
    std::vector<Entry> rest = std::move(lane);
    std::vector<Entry> timers = std::move(heap);
    lock.unlock();
    // Everything is destroyed here, outside the lock: a closure's destructor
    // may post, and a post on a stopped core only takes the lock to refuse.
  }

 private:
  static obs::Counter& timer_purged() {
    static obs::Counter& c = obs::Registry::global().counter(
        "wan_env_timer_purged_total{env=\"threaded\"}");
    return c;
  }

  /// Stamps `entry` with a sequence number and pushes it onto the heap,
  /// purging cancelled entries when the heap reaches purge_at.
  bool push(Entry entry) {
    std::vector<Entry> purged;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (stopped) return false;
      entry.seq = next_seq++;
      heap.push_back(std::move(entry));
      std::push_heap(heap.begin(), heap.end(), Later{});
      if (heap.size() >= purge_at) {
        const auto live_end =
            std::partition(heap.begin(), heap.end(),
                           [](const Entry& e) { return !e.cancelled(); });
        purged.assign(std::make_move_iterator(live_end),
                      std::make_move_iterator(heap.end()));
        heap.erase(live_end, heap.end());
        std::make_heap(heap.begin(), heap.end(), Later{});
        purge_at = std::max(kMinPurge, 2 * heap.size());
      }
    }
    cv.notify_one();
    // `purged` is destroyed on return, outside the lock (see Stopping).
    if (!purged.empty()) timer_purged().inc(purged.size());
    return true;
  }
};

}  // namespace wan::runtime
