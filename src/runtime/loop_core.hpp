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

  explicit LoopCore(SteadyTP epoch) : epoch(epoch) {}

  const SteadyTP epoch;
  std::mutex mu;
  std::condition_variable cv;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue;
  std::uint64_t next_seq = 0;
  bool stopped = false;

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
    std::unique_lock<std::mutex> lock(mu);
    while (!stopped) {
      if (queue.empty()) {
        cv.wait(lock);
        continue;
      }
      const SteadyTP next = queue.top().at;
      if (next > SteadyClock::now()) {
        cv.wait_until(lock, next);
        continue;
      }
      // priority_queue::top() is const; the entry is moved out and popped
      // before the callback runs, so re-entrant posting is safe.
      Entry entry = std::move(const_cast<Entry&>(queue.top()));
      queue.pop();
      lock.unlock();
      if (!entry.dead || !entry.dead->load(std::memory_order_acquire)) {
        entry.fn();
      }
      lock.lock();
    }
  }
};

}  // namespace wan::runtime
