// LoopCore: the mutex-protected timer wheel at the heart of every real-time
// node loop.
//
// Extracted from ThreadedEnv (where it began life as a private nested struct)
// so that transports living outside the env — the socket transport's reactor
// thread in particular — can enqueue deliveries onto a node's loop without
// knowing anything else about the env that drives it.
//
// A LoopCore is shared by shared_ptr between its env, its timers, and
// whatever fabric delivers into it; post_at() and post_batch() on a stopped
// core return false and drop the work, which is exactly how a delivery to a
// crashed node should behave. post_batch() is the socket transport's
// hand-off: every frame one recvmmsg batch carries for this loop is enqueued
// under one lock hold with one notify_one, instead of a lock and a wake-up
// per frame. One thread calls run_loop(); everything posted runs serialized
// on that thread.
//
// Passes: run_loop() works in passes. A pass is every entry that is due when
// the loop takes its lock; all of them are moved out under that one lock
// hold and then run in (at, seq) order, each entry's `dead` flag checked as
// it runs. While a pass runs, the thread's Pass state is active, so a
// sender may stage what the pass sends (SocketTransport stages encoded
// frames) and arm Pass::flush; end_pass() calls the flush when the pass
// ends, and run_loop() ends a pass before it waits and before it returns.
// A frame sent early in a pass thus leaves when the pass ends, never later,
// however busy the loop stays.
//
// Stopping: once `stopped` is set the loop runs no further entry, not even
// the rest of its current pass. run_loop() moves everything still queued,
// and the rest of the pass, out under the lock and destroys it outside the
// lock before returning, so queued closures (timer states holding the core
// itself) are released rather than kept alive in a cycle.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <utility>
#include <vector>

namespace wan::runtime {

struct LoopCore {
  using SteadyClock = std::chrono::steady_clock;
  using SteadyTP = SteadyClock::time_point;

  struct Entry {
    SteadyTP at;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    /// Set true to cancel; also flipped by timer shots when they fire so
    /// Timer::pending() stays accurate. Null for fire-and-forget work.
    std::shared_ptr<std::atomic<bool>> dead;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

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
  std::priority_queue<Entry, std::vector<Entry>, Later> queue;
  std::uint64_t next_seq = 0;
  /// Written under mu; also read without it between the entries of a pass.
  std::atomic<bool> stopped{false};

  /// Enqueues work; returns false (dropping it) if the loop has stopped.
  static bool post_at(const std::shared_ptr<LoopCore>& core, SteadyTP at,
                      std::function<void()> fn,
                      std::shared_ptr<std::atomic<bool>> dead = nullptr) {
    {
      std::lock_guard<std::mutex> lock(core->mu);
      if (core->stopped) return false;
      core->queue.push(
          Entry{at, core->next_seq++, std::move(fn), std::move(dead)});
    }
    core->cv.notify_one();
    return true;
  }

  /// Enqueues every function of `batch`, due now and in order, under one
  /// lock hold with one notify_one. The functions are moved out of `batch`
  /// (the caller keeps the storage). Returns false, dropping the whole
  /// batch, if the loop has stopped.
  static bool post_batch(const std::shared_ptr<LoopCore>& core,
                         std::span<std::function<void()>> batch) {
    {
      std::lock_guard<std::mutex> lock(core->mu);
      if (core->stopped) return false;
      const SteadyTP now = SteadyClock::now();
      for (std::function<void()>& fn : batch) {
        core->queue.push(Entry{now, core->next_seq++, std::move(fn), nullptr});
      }
    }
    core->cv.notify_one();
    return true;
  }

  void run_loop() {
    std::vector<Entry> pass;
    std::unique_lock<std::mutex> lock(mu);
    while (!stopped) {
      if (queue.empty()) {
        cv.wait(lock);
        continue;
      }
      const SteadyTP next = queue.top().at;  // a copy: the wait unlocks
      const SteadyTP now = SteadyClock::now();
      if (next > now) {
        cv.wait_until(lock, next);
        continue;
      }
      // priority_queue::top() is const; each due entry is moved out and
      // popped before any callback runs, so re-entrant posting is safe (and
      // lands in a later pass).
      while (!queue.empty() && queue.top().at <= now) {
        pass.push_back(std::move(const_cast<Entry&>(queue.top())));
        queue.pop();
      }
      lock.unlock();
      this_thread_pass().active = true;
      std::size_t ran = 0;
      for (; ran < pass.size() && !stopped.load(std::memory_order_acquire);
           ++ran) {
        Entry& entry = pass[ran];
        if (!entry.dead || !entry.dead->load(std::memory_order_acquire)) {
          entry.fn();
        }
      }
      end_pass();
      if (ran < pass.size()) break;  // stopped mid-pass; released below
      pass.clear();
      lock.lock();
    }
    if (!lock.owns_lock()) lock.lock();
    std::vector<Entry> rest = std::move(pass);
    while (!queue.empty()) {
      rest.push_back(std::move(const_cast<Entry&>(queue.top())));
      queue.pop();
    }
    lock.unlock();
    // `rest` is destroyed here, outside the lock: a closure's destructor may
    // post, and post_at() on a stopped core only takes the lock to refuse.
  }
};

}  // namespace wan::runtime
