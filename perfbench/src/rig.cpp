#include "rig.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "proto/wire.hpp"
#include "runtime/backend.hpp"
#include "runtime/env_options.hpp"

namespace perfbench {

using namespace wan;

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

ClientSocket::ClientSocket() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    std::perror("perfbench: client socket");
    std::exit(2);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    std::perror("perfbench: client bind");
    std::exit(2);
  }
  port_ = ntohs(addr.sin_port);
  set_timeout_us(20'000);
}

ClientSocket::~ClientSocket() {
  if (fd_ >= 0) ::close(fd_);
}

bool ClientSocket::connect_to(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

void ClientSocket::set_timeout_us(long us) {
  timeval tv{};
  tv.tv_sec = us / 1'000'000;
  tv.tv_usec = us % 1'000'000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

Rig::Rig(const RigOptions& opts) {
  proto::register_wire_messages();
  runtime::EnvOptions env_opts;
  env_opts.backend = runtime::BackendKind::kReactor;
  env_opts.listen = "127.0.0.1:0";
  std::string error;
  fabric_ = runtime::make_fabric(env_opts, &error);
  socket_ = runtime::fabric_as_socket(fabric_.get());
  if (socket_ == nullptr) {
    std::fprintf(stderr, "perfbench: reactor fabric failed: %s\n", error.c_str());
    std::exit(2);
  }
  const runtime::NodeAddress self{"127.0.0.1", socket_->local_port()};
  std::vector<HostId> manager_ids;
  for (int i = 0; i < kManagers; ++i) {
    manager_ids.push_back(manager_id(i));
    socket_->add_peer(manager_id(i), self);
  }
  for (int h = 0; h < kHosts; ++h) socket_->add_peer(host_id(h), self);
  socket_->add_peer(HostId(kEchoId), self);
  socket_->add_peer(HostId(kClientId),
                    runtime::NodeAddress{"127.0.0.1", client_.port()});
  if (!client_.connect_to(socket_->local_port())) {
    std::perror("perfbench: client connect");
    std::exit(2);
  }

  for (const UserId u : opts.users) keys_.register_user(u, opts.public_key);
  names_.set_managers(kApp, manager_ids);

  proto::ProtocolConfig config;
  config.check_quorum = kCheckQuorum;
  manager_env_ = std::make_unique<runtime::ThreadedEnv>(*fabric_);
  host_env_ = std::make_unique<runtime::ThreadedEnv>(*fabric_);

  if (!opts.journal_dir.empty()) {
    for (int i = 0; i < kManagers; ++i) {
      auto journal = proto::ManagerJournal::open(
          opts.journal_dir + "/m" + std::to_string(i), &error);
      if (journal == nullptr) {
        std::fprintf(stderr, "perfbench: journal: %s\n", error.c_str());
        std::exit(2);
      }
      journals_.push_back(std::move(journal));
    }
  }
  for (int i = 0; i < kManagers; ++i) {
    managers_.push_back(std::make_unique<proto::ManagerHost>(
        manager_id(i), *manager_env_, clk::LocalClock::perfect(), config));
  }
  manager_env_->run_sync([this, &manager_ids] {
    manager_tid_ = current_tid();
    for (std::size_t i = 0; i < managers_.size(); ++i) {
      managers_[i]->manager().manage_app(kApp, manager_ids);
      if (!journals_.empty()) {
        managers_[i]->manager().attach_journal(journals_[i].get());
      }
    }
  });
  for (int h = 0; h < kHosts; ++h) {
    hosts_.push_back(std::make_unique<proto::AppHost>(
        host_id(h), *host_env_, clk::LocalClock::perfect(), names_, keys_, config));
  }
  host_env_->run_sync([this] {
    host_tid_ = current_tid();
    for (auto& host : hosts_) {
      host->controller().register_app(
          kApp, [](UserId, const std::string& payload) { return payload; });
    }
    // The fabric echo endpoint: whatever arrives goes straight back.
    auto& transport = host_env_->transport();
    transport.register_endpoint(
        HostId(kEchoId), [&transport](HostId from, const net::MessagePtr& msg) {
          transport.send(HostId(kEchoId), from, msg);
        });
  });
}

Rig::~Rig() {
  // Stops both loops and the reactor before any module is destroyed.
  socket_->shutdown();
}

std::int64_t Rig::now_ns() const { return to_fabric_ns(SteadyClock::now()); }

std::int64_t Rig::to_fabric_ns(SteadyClock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - fabric_->epoch())
      .count();
}

bool Rig::apply_updates(acl::Op op, const std::vector<UserId>& users) {
  struct Wait {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
  };
  auto wait = std::make_shared<Wait>();
  manager_env_->post([this, op, users, wait] {
    for (std::size_t k = 0; k < users.size(); ++k) {
      manager(static_cast<int>(k % kManagers))
          .submit_update(kApp, op, users[k], acl::Right::kUse,
                         [wait](const proto::UpdateOutcome&) {
                           std::lock_guard<std::mutex> lock(wait->mu);
                           ++wait->done;
                           wait->cv.notify_all();
                         });
    }
  });
  std::unique_lock<std::mutex> lock(wait->mu);
  return wait->cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return wait->done == users.size(); });
}

}  // namespace perfbench
