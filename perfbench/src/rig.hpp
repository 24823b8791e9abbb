// The benchmark rig: the paper's deployment (3 managers, 4 application
// hosts) inside one process, on real sockets, with no more busy threads than
// a 4-core machine has cores:
//
//   * one ReactorTransport thread (epoll + recvmmsg/sendmmsg) owning the
//     deployment's UDP socket;
//   * one ThreadedEnv loop carrying all 3 managers;
//   * one ThreadedEnv loop carrying all 4 application hosts;
//   * the load driver (the caller's thread) with its own UDP socket,
//     registered in the topology as the client's HostId.
//
// Every node keeps its own endpoint id and module, so each frame still
// crosses the kernel and each node's work stays serialized on its loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "auth/credentials.hpp"
#include "common.hpp"
#include "nameservice/name_service.hpp"
#include "proto/host.hpp"
#include "proto/journal.hpp"
#include "runtime/socket_base.hpp"
#include "runtime/threaded_env.hpp"

namespace perfbench {

/// The driver's UDP socket, connected to the rig's socket. Blocking with a
/// short receive timeout so the driver can notice the end of a round.
class ClientSocket {
 public:
  ClientSocket();
  ~ClientSocket();
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Connects to 127.0.0.1:`port`; false on failure.
  bool connect_to(std::uint16_t port);
  /// Sets the receive timeout used by blocking receives.
  void set_timeout_us(long us);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

struct RigOptions {
  /// Users whose public key is registered (every user the load may send as).
  std::vector<wan::UserId> users;
  std::uint64_t public_key = 0;
  /// Non-empty: attach a ManagerJournal per manager under this directory.
  std::string journal_dir;
};

class Rig {
 public:
  /// Builds and starts the deployment; exits the process with code 2 when a
  /// socket or journal cannot be opened.
  explicit Rig(const RigOptions& opts);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] wan::runtime::ThreadedEnv& manager_env() { return *manager_env_; }
  [[nodiscard]] wan::runtime::ThreadedEnv& host_env() { return *host_env_; }
  [[nodiscard]] wan::proto::ManagerModule& manager(int i) {
    return managers_[static_cast<std::size_t>(i)]->manager();
  }
  [[nodiscard]] wan::proto::AccessController& controller(int h) {
    return hosts_[static_cast<std::size_t>(h)]->controller();
  }
  [[nodiscard]] static wan::HostId manager_id(int i) {
    return wan::HostId(static_cast<std::uint32_t>(i));
  }
  [[nodiscard]] static wan::HostId host_id(int h) {
    return wan::HostId(static_cast<std::uint32_t>(100 + h));
  }
  [[nodiscard]] ClientSocket& client() { return client_; }

  /// Nanoseconds on the fabric clock (the time base of every env.now(),
  /// AccessDecision and UpdateOutcome of this rig).
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::int64_t to_fabric_ns(SteadyClock::time_point t) const;

  /// Submits the updates (rotating over managers) and waits for every
  /// quorum; false if one does not complete within 10 s.
  bool apply_updates(wan::acl::Op op, const std::vector<wan::UserId>& users);

  /// Thread ids of the two loops (read once at construction).
  [[nodiscard]] int manager_tid() const noexcept { return manager_tid_; }
  [[nodiscard]] int host_tid() const noexcept { return host_tid_; }

 private:
  std::unique_ptr<wan::runtime::Fabric> fabric_;
  wan::runtime::SocketTransport* socket_ = nullptr;
  wan::ns::NameService names_;
  wan::auth::KeyRegistry keys_;
  std::unique_ptr<wan::runtime::ThreadedEnv> manager_env_;
  std::unique_ptr<wan::runtime::ThreadedEnv> host_env_;
  std::vector<std::unique_ptr<wan::proto::ManagerJournal>> journals_;
  std::vector<std::unique_ptr<wan::proto::ManagerHost>> managers_;
  std::vector<std::unique_ptr<wan::proto::AppHost>> hosts_;
  ClientSocket client_;
  int manager_tid_ = 0;
  int host_tid_ = 0;
};

/// The calling thread's kernel thread id.
int current_tid();

}  // namespace perfbench
