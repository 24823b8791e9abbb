// Per-layer probes: each times calls into one module's public functions from
// outside, so no probe needs instrumentation inside src/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "load.hpp"
#include "rig.hpp"

namespace perfbench {

/// Median round trip of a bare loopback UDP ping-pong between two sockets of
/// this process at `frame_size` bytes: the floor no protocol change can move.
double udp_floor_rtt_p50_us(std::size_t frame_size, int pings);

/// Median round trip driver -> reactor -> host loop -> echo endpoint ->
/// Fabric::send -> driver, with a request-sized frame.
double fabric_echo_rtt_p50_us(Rig& rig, const std::vector<std::uint8_t>& frame,
                              int pings);

/// net.encode_ns.<Tag> / net.decode_ns.<Tag> for the hot wire tags.
void codec_probes(std::vector<Metric>* out);
/// auth.authenticate_ns, acl.*, obs.* per-call costs.
void module_probes(std::vector<Metric>* out);

/// proto.* probes on an otherwise idle rig: the cache-hit and quorum check
/// paths, the update quorum with its frame counts, and the journal append.
/// Leaves the probe users revoked; run it last.
void proto_probes(Rig& rig, const Population& pop, const std::string& scratch_dir,
                  std::vector<Metric>* out);

/// Kernel thread ids of this process.
std::vector<int> thread_ids();
/// On-CPU nanoseconds of one thread of this process (schedstat).
std::int64_t thread_cpu_ns(int tid);
/// User + system CPU time of the whole process, in microseconds.
double process_cpu_us();

}  // namespace perfbench
