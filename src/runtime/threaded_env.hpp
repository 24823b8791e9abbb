// ThreadedEnv: the real-time runtime behind the seam.
//
// One ThreadedEnv per node. Each env owns an event-loop thread driving a
// LoopCore (runtime/loop_core.hpp) — a mutex-protected timer wheel; timers,
// post()ed work, and inbound deliveries all run serialized on that thread,
// so protocol modules stay single-threaded per node with no locks of their
// own — the same discipline the simulator enforces by construction.
//
// Nodes are connected by a Fabric (runtime/fabric.hpp). The in-process
// implementation here is LoopbackFabric: a datagram transport with
// configurable constant delay (+ uniform jitter) and i.i.d. loss. A send
// locks the fabric, samples loss/delay, and enqueues the delivery onto the
// destination env's loop. The fabric holds each env's loop core by
// shared_ptr, so deliveries to an env that has already stopped (or been
// destroyed) are silently dropped — exactly an unreachable host. The UDP
// socket fabric lives in runtime/socket_base.hpp; a ThreadedEnv runs
// unchanged over either.
//
// Time: sim::TimePoint, measured from the fabric's construction instant on
// the shared steady clock, so timestamps from different nodes are comparable
// (the envs of one fabric model one "real time", as in the paper; per-node
// *local* clock skew stays in runtime::Clock / clk::LocalClock on top).
//
// Teardown discipline: call stop() (or let Fabric::stop_all() do it) on
// every env BEFORE destroying the protocol modules attached to it — a
// stopped loop runs nothing, so queued deliveries can no longer touch a
// module being destroyed.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "runtime/env.hpp"
#include "runtime/env_options.hpp"
#include "runtime/fabric.hpp"
#include "runtime/loop_core.hpp"
#include "util/rng.hpp"

namespace wan::runtime {

class ThreadedEnv final : public Env {
 public:
  explicit ThreadedEnv(Fabric& fabric);
  ~ThreadedEnv() override;
  ThreadedEnv(const ThreadedEnv&) = delete;
  ThreadedEnv& operator=(const ThreadedEnv&) = delete;

  [[nodiscard]] sim::TimePoint now() const override;
  [[nodiscard]] Timer make_timer() override;
  [[nodiscard]] PeriodicTimer make_periodic_timer() override;
  [[nodiscard]] Transport& transport() override;
  void post(std::function<void()> fn) override;

  /// Posts `fn` onto the loop and blocks until it has run. The only safe way
  /// for an external (driver/test) thread to call into a node's modules.
  /// Must not be called from the loop thread itself (deadlock) or after
  /// stop() (the work would never run).
  void run_sync(std::function<void()> fn);

  /// Stops the loop and joins the thread. Pending and future work is
  /// discarded; deliveries from other nodes are dropped. Idempotent.
  void stop();

 private:
  class Port;

  Fabric& fabric_;
  std::shared_ptr<LoopCore> core_;
  std::unique_ptr<Port> port_;
  std::thread thread_;
};

/// In-process datagram fabric connecting ThreadedEnvs. Uses the simulated-
/// path fields of EnvOptions (delay, jitter, loss, seed); the socket fields
/// are ignored.
class LoopbackFabric final : public Fabric {
 public:
  LoopbackFabric() : LoopbackFabric(EnvOptions{}) {}
  explicit LoopbackFabric(const EnvOptions& opts);

  void attach(HostId id, std::shared_ptr<LoopCore> core,
              Transport::Handler handler) override;
  void set_endpoint_down(HostId id, bool down) override;
  void send(HostId from, HostId to, net::MessagePtr msg) override;

  /// Datagrams handed to a destination loop (delivered counter; diagnostics).
  [[nodiscard]] std::uint64_t delivered() const;
  [[nodiscard]] std::uint64_t sent() const;

 private:
  struct Endpoint {
    std::shared_ptr<LoopCore> core;
    Transport::Handler handler;
    bool down = false;
  };

  mutable std::mutex mu_;
  EnvOptions opts_;
  Rng rng_;
  std::unordered_map<HostId, Endpoint> endpoints_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace wan::runtime
