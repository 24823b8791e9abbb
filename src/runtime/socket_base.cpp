#include "runtime/socket_base.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "net/reliable.hpp"
#include "runtime/reliable_channel.hpp"
#include "util/assert.hpp"

namespace wan::runtime {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Large enough that a localhost saturation load is not limited by kernel
// socket buffers; best effort (the kernel clamps to its sysctl ceilings).
constexpr int kSocketBufBytes = 4 * 1024 * 1024;

bool parse_port(const std::string& text, std::uint16_t* port) {
  if (text.empty() || text.size() > 5) return false;
  std::uint32_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (value > 65535) return false;
  *port = static_cast<std::uint16_t>(value);
  return true;
}

std::optional<std::uint32_t> resolve_host(const std::string& host,
                                          std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_DGRAM;
  addrinfo* result = nullptr;
  if (const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
      rc != 0) {
    if (error) {
      *error = "cannot resolve '" + host + "': " + ::gai_strerror(rc);
    }
    return std::nullopt;
  }
  const std::uint32_t ip_be =
      reinterpret_cast<const sockaddr_in*>(result->ai_addr)->sin_addr.s_addr;
  ::freeaddrinfo(result);
  return ip_be;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counters

obs::Counter& socket_frames_sent() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_frames_sent_total");
  return c;
}

obs::Counter& socket_frames_received() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_frames_received_total");
  return c;
}

obs::Counter& socket_deliveries() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_deliveries_total");
  return c;
}

obs::Counter& socket_handoffs() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_handoffs_total");
  return c;
}

void count_socket_drop(const char* reason) {
  obs::Registry::global()
      .counter(std::string("wan_udp_drops_total{reason=\"") + reason + "\"}")
      .inc();
}

// ---------------------------------------------------------------------------
// NodeAddress / Topology

std::string NodeAddress::to_string() const {
  return host + ":" + std::to_string(port);
}

std::optional<NodeAddress> parse_node_address(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  NodeAddress addr;
  addr.host = text.substr(0, colon);
  if (!parse_port(text.substr(colon + 1), &addr.port)) return std::nullopt;
  return addr;
}

std::optional<Topology> Topology::load(const std::string& path,
                                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open topology file '" + path + "'";
    return std::nullopt;
  }
  return parse(in, error);
}

std::optional<Topology> Topology::parse(std::istream& in, std::string* error) {
  Topology topo;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    std::string id_text, addr_text, extra;
    if (!(fields >> id_text)) continue;  // blank / comment-only line
    const auto complain = [&](const std::string& what) {
      if (error) {
        *error = "topology line " + std::to_string(lineno) + ": " + what;
      }
      return std::nullopt;
    };
    if (!(fields >> addr_text)) return complain("expected '<id> <host>:<port>'");
    if (fields >> extra) return complain("trailing text '" + extra + "'");
    std::uint64_t id_value = 0;
    for (const char c : id_text) {
      if (c < '0' || c > '9') return complain("bad host id '" + id_text + "'");
      id_value = id_value * 10 + static_cast<std::uint64_t>(c - '0');
      if (id_value > 0xFFFFFFFFull) {
        return complain("host id out of range '" + id_text + "'");
      }
    }
    const std::optional<NodeAddress> addr = parse_node_address(addr_text);
    if (!addr) return complain("bad address '" + addr_text + "'");
    if (topo.entries_.count(static_cast<std::uint32_t>(id_value)) != 0) {
      return complain("duplicate host id '" + id_text + "'");
    }
    topo.add(HostId(static_cast<std::uint32_t>(id_value)), *addr);
  }
  return topo;
}

void Topology::add(HostId id, NodeAddress addr) {
  entries_[id.value()] = std::move(addr);
}

const NodeAddress* Topology::find(HostId id) const {
  const auto it = entries_.find(id.value());
  return it == entries_.end() ? nullptr : &it->second;
}

std::string Topology::serialize() const {
  std::string out = "# wan topology: <host-id> <host>:<port>\n";
  for (const auto& [id, addr] : entries_) {
    out += std::to_string(id) + " " + addr.to_string() + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// SocketTransport

SocketTransport::SocketTransport() = default;

std::unique_ptr<SocketTransport> SocketTransport::create(
    const EnvOptions& opts, std::string* error) {
  // Can't use make_unique with the private constructor.
  std::unique_ptr<SocketTransport> t(new SocketTransport());
  if (!t->open(opts, error)) return nullptr;
  t->reactor_ = std::thread([p = t.get()] { p->reactor_loop(); });
  return t;
}

SocketTransport::~SocketTransport() {
  shutdown();
  for (int* fd : {&fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

bool SocketTransport::open(const EnvOptions& opts, std::string* error) {
  const std::string listen_text =
      opts.listen.empty() ? std::string("127.0.0.1:0") : opts.listen;
  const std::optional<NodeAddress> listen = parse_node_address(listen_text);
  if (!listen) {
    if (error) *error = "bad listen address '" + listen_text + "'";
    return false;
  }
  const std::optional<std::uint32_t> listen_ip =
      resolve_host(listen->host, error);
  if (!listen_ip) return false;

  send_queue_limit_ = opts.send_queue_limit;

  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_port = htons(listen->port);
  bind_addr.sin_addr.s_addr = *listen_ip;
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&bind_addr),
             sizeof bind_addr) != 0) {
    if (error) {
      *error = "bind(" + listen->to_string() + "): " + std::strerror(errno);
    }
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    if (error) *error = std::string("getsockname(): ") + std::strerror(errno);
    return false;
  }
  local_port_ = ntohs(bound.sin_port);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &kSocketBufBytes,
               sizeof kSocketBufBytes);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &kSocketBufBytes,
               sizeof kSocketBufBytes);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    if (error) *error = std::string("epoll_create1(): ") + std::strerror(errno);
    return false;
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    if (error) *error = std::string("eventfd(): ") + std::strerror(errno);
    return false;
  }
  epoll_event sock_ev{};
  sock_ev.events = EPOLLIN;
  sock_ev.data.fd = fd_;
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd_, &sock_ev) != 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_ev) != 0) {
    if (error) *error = std::string("epoll_ctl(): ") + std::strerror(errno);
    return false;
  }

  if (!opts.topology_path.empty()) {
    const std::optional<Topology> topo =
        Topology::load(opts.topology_path, error);
    if (!topo) return false;
    for (const auto& [id, addr] : topo->entries()) {
      if (!add_peer(HostId(id), addr)) {
        if (error) {
          *error = "topology host " + std::to_string(id) +
                   ": cannot resolve '" + addr.host + "'";
        }
        return false;
      }
    }
  }

  if (opts.reliability.enabled) {
    reliable_ = std::make_unique<ReliableChannel>(
        opts.reliability,
        [this](std::vector<std::uint8_t> frame, ResolvedAddr dest) {
          return enqueue_frame(std::move(frame), dest);
        },
        [this](std::uint32_t host) -> std::optional<ResolvedAddr> {
          std::lock_guard<std::mutex> lock(mu_);
          const auto it = peers_.find(host);
          if (it == peers_.end()) return std::nullopt;
          return it->second;
        },
        // Channel spans on the fabric's runtime clock, the same basis as
        // env.now() — merged traces interleave them with protocol spans.
        [this] {
          return std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - epoch())
              .count();
        });
  }
  return true;
}

void SocketTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Envs first: once their loops stop, queued deliveries are dropped and no
  // protocol code runs while the reactor winds down. The reliability layer
  // goes next — its timer thread enqueues into the outbound queue, so it
  // must stop before the reactor does.
  stop_all();
  if (reliable_ != nullptr) reliable_->stop();
  stopping_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) wake();
  if (reactor_.joinable()) reactor_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SocketTransport::send(HostId from, HostId to, net::MessagePtr msg) {
  WAN_REQUIRE(msg != nullptr);
  static obs::Counter& sends =
      obs::Registry::global().counter("wan_env_sends_total{env=\"reactor\"}");
  sends.inc();
  const std::optional<ResolvedAddr> dest = route_for_send(from, to);
  if (!dest) return;
  // The send's one codec-registry lookup; encoding runs outside its lock.
  const std::optional<net::CodecRegistry::Encoder> encoder =
      net::CodecRegistry::global().encoder_for(*msg);
  if (!encoder) {
    count_socket_drop("unregistered_type");
    return;
  }
  if (reliable_ != nullptr && msg->reliable()) {
    reliable_->send_reliable(from, to, *msg, *encoder, *dest);
    return;
  }
  std::vector<std::uint8_t> frame = take_buffer();
  if (!net::CodecRegistry::encode_into(*encoder, from, to, *msg, &frame)) {
    // The type is registered, so the only way encode fails is a frame
    // bigger than one UDP datagram can carry.
    count_socket_drop("oversize");
    recycle_buffer(std::move(frame));
    return;
  }
  enqueue_frame(std::move(frame), *dest);
}

void SocketTransport::set_peer_unreachable(UnreachableFn fn) {
  if (reliable_ != nullptr) reliable_->set_peer_unreachable(std::move(fn));
}

ReliableChannel* SocketTransport::reliable_channel() noexcept {
  return reliable_.get();
}

void SocketTransport::attach(HostId id, std::shared_ptr<LoopCore> core,
                             Transport::Handler handler) {
  WAN_REQUIRE(id.valid());
  WAN_REQUIRE(handler != nullptr);
  auto shared =
      std::make_shared<const Transport::Handler>(std::move(handler));
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[id] = Endpoint{std::move(core), std::move(shared), false};
}

void SocketTransport::set_endpoint_down(HostId id, bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(id);
  WAN_REQUIRE(it != endpoints_.end());
  it->second.down = down;
}

bool SocketTransport::add_peer(HostId id, const NodeAddress& addr) {
  const std::optional<std::uint32_t> ip_be = resolve_host(addr.host, nullptr);
  if (!ip_be) return false;
  std::lock_guard<std::mutex> lock(mu_);
  peers_[id.value()] = ResolvedAddr{*ip_be, htons(addr.port)};
  return true;
}

void SocketTransport::block_inbound_from(HostId peer, bool blocked) {
  std::lock_guard<std::mutex> lock(mu_);
  if (blocked) {
    blocked_sources_.insert(peer.value());
  } else {
    blocked_sources_.erase(peer.value());
  }
}

void SocketTransport::set_fault_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_plan_ = plan;
  fault_rng_ = Rng(plan.seed);
  faults_armed_.store(
      plan.loss > 0.0 || plan.duplicate > 0.0 || plan.reorder > 0.0,
      std::memory_order_release);
  held_.reset();
}

std::optional<ResolvedAddr> SocketTransport::route_for_send(HostId from,
                                                            HostId to) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto src = endpoints_.find(from);
  if (src == endpoints_.end() || src->second.down) {
    count_socket_drop("endpoint_down");
    return std::nullopt;
  }
  const auto peer = peers_.find(to.value());
  if (peer == peers_.end()) {
    count_socket_drop("unknown_dest");
    return std::nullopt;
  }
  return peer->second;
}

void SocketTransport::screen(Staging& staging) {
  // Source filtering precedes fault injection and the reliability layer: a
  // forged or blocked envelope must not draw fault decisions, and a one-way
  // partition must swallow the envelope too, or the ack it triggers would
  // defeat the cut the test armed. The destination lookup rides the same
  // lock hold; a reliable envelope's inner frame must name the same
  // destination, so one route serves both.
  std::lock_guard<std::mutex> lock(mu_);
  for (Arrival& a : staging.arrivals) {
    if (a.reject != nullptr) continue;  // failed to decode
    const auto peer = peers_.find(a.from);
    if (peer == peers_.end() || !(peer->second == a.source)) {
      a.reject = "spoofed_source";
      continue;
    }
    if (blocked_sources_.count(a.from) != 0) {
      a.reject = "blocked";
      continue;
    }
    std::size_t r = 0;
    while (r < staging.routes.size() && staging.routes[r].to != a.to) ++r;
    if (r == staging.routes.size()) {
      Route route;
      route.to = a.to;
      if (const auto it = endpoints_.find(HostId(a.to));
          it != endpoints_.end()) {
        route.core = it->second.core;
        route.handler = it->second.handler;
        route.down = it->second.down;
      }
      staging.routes.push_back(std::move(route));
    }
    a.route = r;
  }
}

void SocketTransport::admit(Arrival& arrival, Staging& staging) {
  const Route& route = staging.routes[arrival.route];
  if (!faults_armed_.load(std::memory_order_acquire)) {
    dispatch(arrival.from, arrival.to, arrival.tag, std::move(arrival.msg),
             route, staging);
    return;
  }
  // Adverse-network injection (test hook). Decisions are drawn under
  // fault_mu_; dispatch happens outside it so a released held frame cannot
  // re-enter the reliability layer while the lock is held.
  bool drop = false;
  bool duplicate = false;
  bool hold = false;
  std::optional<HeldFrame> release;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (faults_armed_.load(std::memory_order_relaxed)) {
      drop = fault_rng_.next_bool(fault_plan_.loss);
      if (!drop) {
        hold = !held_.has_value() && fault_rng_.next_bool(fault_plan_.reorder);
        duplicate = !hold && fault_rng_.next_bool(fault_plan_.duplicate);
        if (hold) {
          held_ = HeldFrame{arrival.from, arrival.to, arrival.tag, arrival.msg,
                            route};
        } else if (held_.has_value()) {
          release = std::move(held_);
          held_.reset();
        }
      }
    }
  }
  if (drop) {
    count_socket_drop("injected_loss");
    return;
  }
  if (hold) return;  // delivered (reordered) behind the next frame
  dispatch(arrival.from, arrival.to, arrival.tag, arrival.msg, route, staging);
  if (duplicate) {
    dispatch(arrival.from, arrival.to, arrival.tag, arrival.msg, route,
             staging);
  }
  if (release) {
    dispatch(release->from, release->to, release->tag, std::move(release->msg),
             release->route, staging);
  }
}

void SocketTransport::dispatch(std::uint32_t from_value,
                               std::uint32_t to_value, net::WireTag tag,
                               net::MessagePtr msg, const Route& route,
                               Staging& staging) {
  if (reliable_ != nullptr) {
    // With the reliability layer on, the tag 16/17 codecs are registered,
    // so the tag fixes the decoded type.
    if (tag == net::kTagReliableData) {
      msg = reliable_->on_data(from_value, to_value,
                               static_cast<const net::ReliableData&>(*msg));
      if (msg == nullptr) return;
    } else if (tag == net::kTagReliableAck) {
      reliable_->on_ack(from_value, to_value,
                        static_cast<const net::ReliableAck&>(*msg));
      return;
    }
  }
  stage(route, from_value, std::move(msg), staging);
}

void SocketTransport::stage(const Route& route, std::uint32_t from_value,
                            net::MessagePtr msg, Staging& staging) {
  if (route.core == nullptr) {
    count_socket_drop("not_local");
    return;
  }
  if (route.down) {
    count_socket_drop("endpoint_down");
    return;
  }
  socket_deliveries().inc();
  auto group = staging.groups.begin();
  while (group != staging.groups.end() && group->first != route.core) ++group;
  if (group == staging.groups.end()) {
    group = staging.groups.emplace(staging.groups.end(), route.core,
                                   std::vector<std::function<void()>>{});
  }
  group->second.emplace_back(
      [handler = route.handler, from = HostId(from_value),
       msg = std::move(msg)] { (*handler)(from, msg); });
}

void SocketTransport::hand_off(Staging& staging) {
  for (auto& [core, batch] : staging.groups) {
    socket_handoffs().inc();
    // A stopped loop drops its share; the other loops' shares still go out.
    LoopCore::post_batch(core, batch);
  }
  staging.groups.clear();
}

std::vector<std::uint8_t> SocketTransport::take_buffer() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(pool_.back());
  pool_.pop_back();
  return buf;
}

void SocketTransport::recycle_buffer(std::vector<std::uint8_t>&& buf) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_.size() < send_queue_limit_) pool_.push_back(std::move(buf));
}

void SocketTransport::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

bool SocketTransport::enqueue_frame(std::vector<std::uint8_t> frame,
                                    const ResolvedAddr& dest) {
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= send_queue_limit_) {
      count_socket_drop("queue_full");
      return false;
    }
    was_empty = queue_.empty();
    queue_.push_back(Outbound{std::move(frame), dest});
  }
  // Ring the reactor only on the empty->nonempty edge: once it is awake it
  // drains the whole queue, so further wakeups would be redundant syscalls.
  if (was_empty) wake();
  return true;
}

void SocketTransport::set_want_write(bool want) {
  if (want == want_write_) return;
  want_write_ = want;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd_, &ev);
}

void SocketTransport::reactor_loop() {
  epoll_event events[4];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 4, /*timeout_ms=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone — shutdown is racing us
    }
    bool readable = false;
    bool writable = false;
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == wake_fd_) {
        woken = true;
      } else {
        if (events[i].events & EPOLLIN) readable = true;
        if (events[i].events & EPOLLOUT) writable = true;
      }
    }
    if (woken) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &drained, sizeof drained);
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    if (readable) drain_inbound();
    // Flush whenever there might be outbound work: a wakeup (new frames), a
    // writable edge (kernel buffer drained), or leftovers from a prior pass.
    if (woken || writable || want_write_) {
      set_want_write(!flush_outbound());
    }
  }
}

void SocketTransport::drain_inbound() {
  // Preallocated batch machinery: kBatch slots, each a full-size datagram
  // buffer plus its source address, reused across every recvmmsg call for
  // the life of the reactor.
  static thread_local std::vector<std::uint8_t> storage(kBatch * 65536);
  static thread_local std::array<iovec, kBatch> iovecs;
  static thread_local std::array<sockaddr_in, kBatch> sources;
  static thread_local std::array<mmsghdr, kBatch> headers;
  // The one staging buffer: only the reactor, through this function, hands
  // frames to node loops.
  static thread_local Staging staging;
  const net::CodecRegistry& codec = net::CodecRegistry::global();
  for (;;) {
    for (unsigned i = 0; i < kBatch; ++i) {
      iovecs[i].iov_base = storage.data() + i * std::size_t{65536};
      iovecs[i].iov_len = 65536;
      headers[i].msg_hdr = msghdr{};
      headers[i].msg_hdr.msg_name = &sources[i];
      headers[i].msg_hdr.msg_namelen = sizeof sources[i];
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
    }
    const int got = ::recvmmsg(fd_, headers.data(), kBatch, MSG_DONTWAIT,
                               /*timeout=*/nullptr);
    if (got <= 0) return;  // EAGAIN (drained) or transient error
    socket_frames_received().inc(static_cast<std::uint64_t>(got));
    for (int i = 0; i < got; ++i) {
      Arrival& a = staging.arrivals.emplace_back();
      const sockaddr_in& src = sources[i];
      // An AF_INET socket only ever reports AF_INET sources; anything else
      // cannot match a registered peer and fails the source check.
      if (headers[i].msg_hdr.msg_namelen == sizeof src &&
          src.sin_family == AF_INET) {
        a.source = ResolvedAddr{src.sin_addr.s_addr, src.sin_port};
      }
      const net::CodecRegistry::Decoded decoded =
          codec.decode(static_cast<const std::uint8_t*>(iovecs[i].iov_base),
                       headers[i].msg_len);
      if (!decoded.ok()) {
        a.reject = net::to_cstring(decoded.error);
        continue;
      }
      a.from = decoded.frame->from.value();
      a.to = decoded.frame->to.value();
      a.tag = decoded.frame->tag;
      a.msg = decoded.frame->msg;
    }
    screen(staging);
    for (Arrival& a : staging.arrivals) {
      if (a.reject != nullptr) {
        count_socket_drop(a.reject);
      } else {
        admit(a, staging);
      }
    }
    hand_off(staging);
    staging.arrivals.clear();
    staging.routes.clear();
    if (static_cast<unsigned>(got) < kBatch) return;  // socket drained
  }
}

bool SocketTransport::flush_outbound() {
  for (;;) {
    // Pop up to one batch; sending happens outside queue_mu_ so send() is
    // never blocked behind a syscall.
    std::array<Outbound, kBatch> batch;
    unsigned count = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      while (count < kBatch && !queue_.empty()) {
        batch[count++] = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    if (count == 0) return true;

    std::array<sockaddr_in, kBatch> dests;
    std::array<iovec, kBatch> iovecs;
    std::array<mmsghdr, kBatch> headers;
    for (unsigned i = 0; i < count; ++i) {
      dests[i] = sockaddr_in{};
      dests[i].sin_family = AF_INET;
      dests[i].sin_port = batch[i].dest.port_be;
      dests[i].sin_addr.s_addr = batch[i].dest.ip_be;
      iovecs[i].iov_base = batch[i].frame.data();
      iovecs[i].iov_len = batch[i].frame.size();
      headers[i].msg_hdr = msghdr{};
      headers[i].msg_hdr.msg_name = &dests[i];
      headers[i].msg_hdr.msg_namelen = sizeof dests[i];
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
    }

    unsigned sent = 0;
    while (sent < count) {
      const int n =
          ::sendmmsg(fd_, headers.data() + sent, count - sent, MSG_DONTWAIT);
      if (n > 0) {
        for (int i = 0; i < n; ++i) {
          socket_frames_sent().inc();
          recycle_buffer(std::move(batch[sent + i].frame));
        }
        sent += static_cast<unsigned>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: requeue the unsent tail (preserving order) and
        // let EPOLLOUT resume us.
        std::lock_guard<std::mutex> lock(queue_mu_);
        for (unsigned i = count; i > sent; --i) {
          queue_.push_front(std::move(batch[i - 1]));
        }
        return false;
      }
      // Hard error on the head frame: drop it, keep going with the rest.
      count_socket_drop("sendto_error");
      recycle_buffer(std::move(batch[sent].frame));
      ++sent;
    }
  }
}

}  // namespace wan::runtime
