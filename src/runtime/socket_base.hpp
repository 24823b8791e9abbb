// SocketTransport: the runtime fabric over real UDP sockets — nodes span
// processes and machines.
//
// One SocketTransport per OS process, owning one nonblocking UDP socket.
// Local nodes attach exactly as they do to a LoopbackFabric (ThreadedEnv's
// transport port calls attach/send); remote nodes are reached through a
// static topology mapping HostId -> host:port, loaded from a file or patched
// in with add_peer(). Frames on the wire are produced by the
// net::CodecRegistry codec (docs/WIRE_FORMAT.md), one frame per datagram.
// Callers must register the protocol codecs (proto::register_wire_messages())
// before the first send — the runtime layer itself is protocol-agnostic and
// never includes proto/ headers.
//
// I/O: each direction is carried by the threads that produce it. The
// reactor thread multiplexes, through epoll, the socket and an eventfd, and
// does the receiving: inbound datagrams are drained with recvmmsg, kBatch
// frames per syscall, until EAGAIN. Sending happens on the sending thread.
// send() encodes into a vector recycled from a pool capped at the queue
// limit, so the steady-state send path does not allocate, and then:
//   * on a thread running a LoopCore pass (a node loop, or the reactor
//     admitting one recvmmsg batch) stages the frame in that thread's
//     outbox; the pass's end flushes the outbox with one sendmmsg, as does
//     the kBatch-th staged frame;
//   * on any other thread (the reliability timer, a test's own thread)
//     sends the frame at once.
// Every transmission goes through one helper, one sendmmsg per at most
// kBatch frames. When the kernel socket buffer fills (sendmmsg EAGAIN) the
// unsent tail joins the reactor's backlog queue, the eventfd rings on the
// backlog's empty->nonempty edge, and the reactor flushes the backlog under
// EPOLLOUT, so a full kernel buffer delays rather than drops. Frames sent
// while a backlog exists, or while the reactor holds backlog frames it has
// not sent yet, queue behind it, so each thread's frames keep their order.
// The eventfd otherwise only stops the reactor at shutdown. Every frame
// the transport holds unsent — staged, backlogged, or in the reactor's hands
// — counts against EnvOptions::send_queue_limit: beyond it a frame is shed
// as wan_udp_drops_total{reason="queue_full"}, so UDP never backpressures
// into protocol code.
//
// Sender authenticity: the frame header names its sender, but any local
// process can write any header. A frame is accepted only when its datagram
// came from the address the topology registers for the header's sender
// (several ids may share one address); anything else is dropped as
// wan_udp_drops_total{reason="spoofed_source"} before the fault plan, the
// reliability layer, or protocol code sees it. This is the authentic-channel
// assumption the paper's revocation guarantee rests on: a forged
// QueryResponse "from a manager" would otherwise be an unauthorized allow.
//
// Batched hand-off: the reactor keeps each recvmmsg batch together up to the
// node loops. It decodes the batch, takes mu_ once for every frame's source,
// blocked and destination-endpoint checks, runs the fault plan and the
// reliability layer frame by frame in arrival order, and stages the accepted
// deliveries per destination LoopCore. A delivery is a plain
// LoopCore::Delivery struct (shared handler, sender, message), not a
// closure, so staging allocates nothing per frame. Each loop then gets its
// share of the batch with one LoopCore::post_batch — one lock and one
// wake-up per batch per loop, not per frame — into the loop's ready lane,
// never its timer heap, and runs it in arrival order, so protocol modules
// stay single-threaded per node. Endpoint handlers are shared with the
// queued deliveries, never copied per frame. The cross-fabric
// conformance suite (tests/test_conformance.cpp) holds this transport and
// the in-process loopback fabric to the same protocol outcomes.
//
// Adverse-network injection: set_fault_plan() arms a *deterministic* seeded
// fault stream applied to inbound frames after decode — loss (counted as
// wan_udp_drops_total{reason="injected_loss"}), duplication, and reordering
// (hold one delivery, release it after the next frame). Given the same
// arrival sequence, the same plan makes the same decisions; tests use it to
// prove the protocol converges (and the Te bound holds) over a misbehaving
// fabric without ever touching real packet schedules.
//
// Observability: wan_udp_frames_sent_total (counted on the sending thread),
// wan_udp_send_flushes_total (sendmmsg calls: frames_sent / flushes is the
// frames per send syscall), wan_udp_frames_received_total,
// wan_udp_deliveries_total, wan_udp_handoffs_total (one per batch per
// destination loop: deliveries / handoffs is the frames per wake-up), and
// wan_udp_drops_total{reason=...}.
//
// Topology file format (docs/WIRE_FORMAT.md): one `<host-id> <host>:<port>`
// pair per line; `#` starts a comment. Every process of a deployment loads
// the same file.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "runtime/env_options.hpp"
#include "runtime/fabric.hpp"
#include "util/rng.hpp"

namespace wan::runtime {

/// Where a node listens: numeric IPv4 or a resolvable name, plus a UDP port.
struct NodeAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  bool operator==(const NodeAddress&) const = default;
};

/// Parses "host:port". Returns nullopt on a missing colon, empty host, or an
/// out-of-range port.
[[nodiscard]] std::optional<NodeAddress> parse_node_address(
    const std::string& text);

/// Static HostId -> NodeAddress map shared by every process of a deployment.
class Topology {
 public:
  /// Loads from a file; on failure returns nullopt and describes why.
  static std::optional<Topology> load(const std::string& path,
                                      std::string* error);
  static std::optional<Topology> parse(std::istream& in, std::string* error);

  void add(HostId id, NodeAddress addr);
  [[nodiscard]] const NodeAddress* find(HostId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Entries keyed by HostId value, in ascending order.
  [[nodiscard]] const std::map<std::uint32_t, NodeAddress>& entries() const {
    return entries_;
  }

  /// The file representation (what load() parses) — orchestrators write this.
  [[nodiscard]] std::string serialize() const;

 private:
  std::map<std::uint32_t, NodeAddress> entries_;
};

/// Deterministic adverse-network model for the socket fabrics (test hook).
/// Decisions are drawn per inbound frame from a seeded stream, so the same
/// plan over the same arrival sequence misbehaves identically.
struct FaultPlan {
  std::uint64_t seed = 1;
  double loss = 0.0;       ///< drop the frame (counted as injected_loss)
  double duplicate = 0.0;  ///< deliver the frame twice
  double reorder = 0.0;    ///< hold the frame, release after the next one
};

/// A peer address resolved to wire form, ready for a sendto destination.
struct ResolvedAddr {
  std::uint32_t ip_be = 0;    ///< network byte order
  std::uint16_t port_be = 0;  ///< network byte order

  bool operator==(const ResolvedAddr&) const = default;
};

class ReliableChannel;

class SocketTransport final : public Fabric {
 public:
  /// Binds opts.listen (default "127.0.0.1:0"; port 0 picks an ephemeral
  /// port, see local_port()) nonblocking, loads opts.topology_path if
  /// non-empty, and starts the reactor thread. Returns nullptr and sets
  /// *error on failure.
  static std::unique_ptr<SocketTransport> create(const EnvOptions& opts,
                                                 std::string* error);
  ~SocketTransport() override;

  /// Route, classify, encode, enqueue. With the reliability layer enabled
  /// (EnvOptions::reliability), messages whose net::Message::reliable() is
  /// true travel wrapped in the ack/retransmit envelope; heartbeats and the
  /// envelope itself stay fire-and-forget.
  void send(HostId from, HostId to, net::MessagePtr msg) override;

  void attach(HostId id, std::shared_ptr<LoopCore> core,
              Transport::Handler handler) override;
  void set_endpoint_down(HostId id, bool down) override;

  /// The port actually bound (resolves a port-0 listen address).
  [[nodiscard]] std::uint16_t local_port() const noexcept {
    return local_port_;
  }

  /// Adds or replaces one peer route (tests and orchestrators patch in
  /// addresses discovered after port-0 binds; production loads a topology
  /// file instead). The route is also the only source address frames
  /// claiming to be from `id` are accepted from. Returns false when the
  /// host does not resolve.
  bool add_peer(HostId id, const NodeAddress& addr);

  /// Drops every inbound frame whose source is `peer` (and counts it).
  /// Simulates a one-way partition for the revocation worst case: the cut
  /// host keeps serving its agent while manager traffic never arrives.
  void block_inbound_from(HostId peer, bool blocked);

  /// Arms (or, with a default-constructed plan, disarms) deterministic
  /// inbound loss/duplication/reordering. Test-only; see FaultPlan.
  void set_fault_plan(const FaultPlan& plan);

  /// Fired when the reliability layer abandons a peer (retry budget
  /// exhausted); `abandoned` counts the frames dropped in that sweep. Runs
  /// on the channel's timer thread. No-op without a reliability layer.
  using UnreachableFn = std::function<void(HostId peer, std::size_t abandoned)>;
  void set_peer_unreachable(UnreachableFn fn);

  /// The reliability layer, or nullptr when EnvOptions::reliability was off
  /// (tests poll in_flight() through this).
  [[nodiscard]] ReliableChannel* reliable_channel() noexcept;

  /// Stops attached envs, then the reliability layer, then the reactor
  /// thread, and closes the socket. Idempotent; the destructor calls it.
  void shutdown();

  /// Datagrams per recvmmsg/sendmmsg syscall.
  static constexpr unsigned kBatch = 64;

 private:
  struct Endpoint {
    std::shared_ptr<LoopCore> core;
    /// Shared with every queued delivery, so a re-attach never pulls the
    /// handler out from under one.
    std::shared_ptr<const Transport::Handler> handler;
    bool down = false;
  };
  struct Outbound {
    std::vector<std::uint8_t> frame;
    ResolvedAddr dest;
  };
  /// One thread's frames staged during a pass, all for `owner`.
  struct Outbox {
    SocketTransport* owner = nullptr;
    std::vector<Outbound> frames;
  };
  /// A destination endpoint as one inbound batch found it under mu_.
  struct Route {
    std::uint32_t to = 0;
    std::shared_ptr<LoopCore> core;  ///< null: no such local endpoint
    std::shared_ptr<const Transport::Handler> handler;
    bool down = false;
  };
  /// One decoded frame of an inbound batch.
  struct Arrival {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    net::WireTag tag = 0;
    net::MessagePtr msg;
    ResolvedAddr source;
    const char* reject = nullptr;  ///< drop reason from the source checks
    std::size_t route = 0;         ///< index into Staging::routes
  };
  /// The hand-off buffer of one recvmmsg batch. drain_inbound owns the only
  /// instance, so staging happens on the reactor thread alone.
  struct Staging {
    std::vector<Arrival> arrivals;
    std::vector<Route> routes;  ///< distinct destinations of the batch
    /// Accepted deliveries per destination loop, in arrival order. A
    /// hand-off frees each group (null core) but keeps its storage.
    std::vector<std::pair<std::shared_ptr<LoopCore>,
                          std::vector<LoopCore::Delivery>>>
        groups;
  };

  // Out of line: the constructor/destructor need the complete
  // ReliableChannel type for the unique_ptr member.
  SocketTransport();

  /// Opens, binds, and sets up epoll per opts; loads the topology and the
  /// reliability layer. On failure sets *error and returns false; the
  /// destructor closes whatever was opened.
  bool open(const EnvOptions& opts, std::string* error);

  /// Route lookup for a send; nullopt counts the unknown_dest drop.
  /// Additionally verifies the source endpoint is attached and up
  /// (endpoint_down drop otherwise).
  std::optional<ResolvedAddr> route_for_send(HostId from, HostId to);

  /// Stages one encoded frame in the calling thread's pass, or sends it at
  /// once when the thread runs no pass. Returns false on a queue-full shed
  /// (counted). Called from env loop threads, from the reactor (acks) and
  /// from the reliability layer's timer thread.
  bool send_frame(std::vector<std::uint8_t> frame, const ResolvedAddr& dest);

  /// The calling thread's staged frames. Empty, with no owner, outside a
  /// pass: the pass's end always flushes it.
  static Outbox& outbox();
  /// Sends the calling thread's staged frames (the LoopCore::Pass flush).
  static void flush_outbox();
  /// Sends `frames` in order: behind the backlog if one exists, else
  /// directly, backlogging whatever the kernel buffer refuses.
  void transmit_or_backlog(std::span<Outbound> frames);
  /// The one transmit path: sendmmsg, at most kBatch frames per call, until
  /// every frame went out or was dropped (hard error), or the kernel buffer
  /// filled. Returns how many frames from the front it consumed.
  std::size_t transmit(std::span<Outbound> frames);

  std::vector<std::uint8_t> take_buffer();
  void recycle_buffer(std::vector<std::uint8_t>&& buf);
  /// Returns the buffers of sent frames to the pool under one lock hold.
  void recycle_buffers(std::span<Outbound> sent);

  /// One mu_ hold for the whole batch: rejects every arrival whose sender
  /// does not match its source address or is blocked, and resolves the
  /// destination endpoint of every other one into staging.routes.
  void screen(Staging& staging);

  /// Applies the inbound fault plan (if armed) to one screened arrival,
  /// after the source checks and before the reliability layer, so injected
  /// loss hits the envelope and retransmission is what recovers it.
  void admit(Arrival& arrival, Staging& staging);

  /// Post-fault routing by wire tag: the reliability layer's envelope
  /// handling (when enabled), then stage().
  void dispatch(std::uint32_t from_value, std::uint32_t to_value,
                net::WireTag tag, net::MessagePtr msg, const Route& route,
                Staging& staging);

  /// Queues one delivery for its destination loop, honouring down and
  /// missing endpoints (blocked sources were screened out on arrival).
  static void stage(const Route& route, std::uint32_t from_value,
                    net::MessagePtr msg, Staging& staging);

  /// Posts each destination loop's staged deliveries with one post_batch.
  static void hand_off(Staging& staging);

  void reactor_loop();
  /// Drains the inbound side with recvmmsg until EAGAIN, handing each batch
  /// off to the destination loops.
  void drain_inbound();
  /// Flushes the backlog queue; returns true when fully drained, false when
  /// the kernel buffer filled (caller arms EPOLLOUT).
  bool flush_outbound();
  void set_want_write(bool want);
  void wake();

  int fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::size_t send_queue_limit_ = 1024;
  std::unique_ptr<ReliableChannel> reliable_;  ///< nullptr when disabled

  mutable std::mutex mu_;
  std::unordered_map<HostId, Endpoint> endpoints_;
  std::unordered_map<std::uint32_t, ResolvedAddr> peers_;  ///< HostId value
  std::unordered_set<std::uint32_t> blocked_sources_;
  bool shut_down_ = false;  ///< guarded by mu_

  // Inbound fault injection (guarded by fault_mu_, never held across
  // dispatch). faults_armed_ lets the reactor skip fault_mu_ entirely while
  // no plan is armed.
  std::mutex fault_mu_;
  std::atomic<bool> faults_armed_{false};
  FaultPlan fault_plan_;
  Rng fault_rng_{1};
  struct HeldFrame {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    net::WireTag tag = 0;
    net::MessagePtr msg;
    Route route;  ///< as resolved by the batch the frame arrived in
  };
  std::optional<HeldFrame> held_;

  /// Frames held unsent: staged, backlogged, or popped by the reactor.
  std::atomic<std::size_t> unsent_{0};

  std::mutex queue_mu_;
  std::deque<Outbound> queue_;  ///< the EAGAIN backlog
  /// The reactor has popped backlog frames it has not sent yet (queue_mu_).
  bool backlog_in_flight_ = false;

  std::mutex pool_mu_;
  std::vector<std::vector<std::uint8_t>> pool_;

  bool want_write_ = false;  ///< reactor thread only
  std::atomic<bool> stopping_{false};
  std::thread reactor_;
};

/// Drop accounting: wan_udp_drops_total{reason=...}. Reasons are
/// queue_full, oversize, unregistered_type, unknown_dest, endpoint_down,
/// spoofed_source, blocked, not_local, sendto_error, injected_loss,
/// seq_out_of_window, reliable_inner_mismatch, or a codec DecodeError
/// string. Drops are rare, so the per-call registry lookup is fine.
void count_socket_drop(const char* reason);

/// Hot counters of the socket transport.
obs::Counter& socket_frames_sent();
obs::Counter& socket_send_flushes();
obs::Counter& socket_frames_received();
obs::Counter& socket_deliveries();
obs::Counter& socket_handoffs();

}  // namespace wan::runtime
