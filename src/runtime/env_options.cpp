#include "runtime/env_options.hpp"

#include <memory>
#include <string>

#include "net/latency_model.hpp"
#include "net/loss_model.hpp"
#include "util/assert.hpp"

namespace wan::runtime {

const char* to_cstring(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kSim: return "sim";
    case BackendKind::kLoopback: return "loopback";
    case BackendKind::kReactor: return "reactor";
  }
  return "?";
}

bool parse_backend(const std::string& text, BackendKind* out) {
  if (text == "sim") *out = BackendKind::kSim;
  else if (text == "loopback") *out = BackendKind::kLoopback;
  else if (text == "reactor") *out = BackendKind::kReactor;
  else return false;
  return true;
}

const char* to_cstring(DisseminationKind kind) noexcept {
  switch (kind) {
    case DisseminationKind::kUnicast: return "unicast";
    case DisseminationKind::kCoalesced: return "coalesced";
    case DisseminationKind::kTree: return "tree";
  }
  return "?";
}

bool parse_dissemination(const std::string& text, DisseminationKind* out) {
  if (text == "unicast") *out = DisseminationKind::kUnicast;
  else if (text == "coalesced") *out = DisseminationKind::kCoalesced;
  else if (text == "tree") *out = DisseminationKind::kTree;
  else return false;
  return true;
}

void DisseminationOptions::validate() const {
  WAN_REQUIRE_MSG(batch_max_rights >= 1,
                  "a batch must be able to carry at least one right");
  WAN_REQUIRE_MSG(!flush_interval.is_negative(),
                  "the coalescing window cannot be negative");
  if (kind == DisseminationKind::kTree) {
    WAN_REQUIRE_MSG(relay_width >= 1,
                    "tree dissemination needs at least one destination per "
                    "relay group");
  }
}

std::string DisseminationOptions::describe() const {
  std::string s = to_cstring(kind);
  if (kind != DisseminationKind::kUnicast) {
    s += " batch_max_rights=" + std::to_string(batch_max_rights);
    s += " flush_interval_us=" +
         std::to_string(flush_interval.count_nanos() / 1000);
  }
  if (kind == DisseminationKind::kTree) {
    s += " relay_width=" + std::to_string(relay_width);
  }
  s += delta_sync ? " delta_sync=on" : " delta_sync=off";
  if (delta_sync) s += " delta_log_cap=" + std::to_string(delta_log_cap);
  return s;
}

shard::ShardMap make_shard_map(const ShardTopologyOptions& topo,
                               const std::vector<HostId>& managers) {
  if (topo.groups <= 1) return shard::ShardMap{};
  WAN_REQUIRE(!managers.empty());
  WAN_REQUIRE(managers.size() % topo.groups == 0);
  const std::size_t per_group = managers.size() / topo.groups;
  std::vector<std::vector<HostId>> groups(topo.groups);
  for (std::size_t i = 0; i < managers.size(); ++i) {
    groups[i / per_group].push_back(managers[i]);
  }
  const std::uint32_t shards = topo.shards != 0 ? topo.shards : topo.groups;
  return shard::ShardMap::ring(std::move(groups), shards, /*epoch=*/1,
                               topo.ring_seed);
}

net::Network::Config to_network_config(const EnvOptions& opts) {
  WAN_REQUIRE(opts.loss >= 0.0 && opts.loss < 1.0);
  WAN_REQUIRE(!opts.delay.is_negative());
  WAN_REQUIRE(!opts.jitter.is_negative());
  net::Network::Config cfg;
  if (opts.jitter.is_zero()) {
    cfg.latency = std::make_unique<net::ConstantLatency>(opts.delay);
  } else {
    cfg.latency = std::make_unique<net::UniformLatency>(
        opts.delay, opts.delay + opts.jitter);
  }
  if (opts.loss > 0.0) {
    cfg.loss = std::make_unique<net::BernoulliLoss>(opts.loss);
  } else {
    cfg.loss = std::make_unique<net::NoLoss>();
  }
  return cfg;
}

}  // namespace wan::runtime
