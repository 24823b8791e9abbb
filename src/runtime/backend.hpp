// make_fabric: one construction path for every real-thread fabric backend.
//
// EnvOptions::backend names the backend; this factory builds it, so tools
// and tests that run over "whatever fabric the flag said" need no
// per-backend wiring. The two fabric kinds are:
//
//   * kLoopback — LoopbackFabric, in-process delivery with the options'
//     delay/jitter/loss shaping;
//   * kReactor  — SocketTransport, real UDP sockets driven by one epoll
//     reactor thread with recvmmsg/sendmmsg batches.
//
// kSim is not a fabric (the simulator is an Env of its own); asking for it
// here is reported as an error, not aborted, so flag parsing can surface it.
//
// fabric_as_socket() downcasts to the SocketTransport surface (local_port,
// add_peer, block_inbound_from, fault plans) when the caller needs it, and
// returns nullptr for the loopback fabric.
#pragma once

#include <memory>
#include <string>

#include "runtime/env_options.hpp"
#include "runtime/fabric.hpp"

namespace wan::runtime {

class SocketTransport;

/// Builds the fabric opts.backend names. Returns nullptr and sets *error on
/// construction failure or on backend kinds that are not fabrics (kSim).
[[nodiscard]] std::unique_ptr<Fabric> make_fabric(const EnvOptions& opts,
                                                  std::string* error);

/// The socket-transport surface of a fabric built by make_fabric(), or
/// nullptr when the fabric is not socket-backed (loopback).
[[nodiscard]] SocketTransport* fabric_as_socket(Fabric* fabric) noexcept;

}  // namespace wan::runtime
