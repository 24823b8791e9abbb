#include "runtime/backend.hpp"

#include "runtime/socket_base.hpp"
#include "runtime/threaded_env.hpp"

namespace wan::runtime {

std::unique_ptr<Fabric> make_fabric(const EnvOptions& opts,
                                    std::string* error) {
  switch (opts.backend) {
    case BackendKind::kLoopback:
      return std::make_unique<LoopbackFabric>(opts);
    case BackendKind::kReactor:
      return SocketTransport::create(opts, error);
    case BackendKind::kSim:
      break;
  }
  if (error) {
    *error = std::string("backend '") + to_cstring(opts.backend) +
             "' is not a fabric";
  }
  return nullptr;
}

SocketTransport* fabric_as_socket(Fabric* fabric) noexcept {
  return dynamic_cast<SocketTransport*>(fabric);
}

}  // namespace wan::runtime
