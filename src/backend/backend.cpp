#include "backend/backend.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/registry.hpp"

namespace pimcomp {

namespace {

detail::RegistryStore<BackendRegistry::Factory>& backend_store() {
  // pimcomp-lint: internally-synchronized (RegistryStore owns a Mutex)
  static detail::RegistryStore<BackendRegistry::Factory> store;
  return store;
}

}  // namespace

InstructionStream Backend::lower(const LowerInput& input) const {
  PIMCOMP_CHECK(input.schedule != nullptr && input.options != nullptr,
                "backend '" + name() + "' needs a schedule and options");
  return InstructionStream::from_schedule(
      *input.schedule, input.options->mode, input.options->parallelism_degree,
      name(), input.mapping_key);
}

SimReport Backend::execute(const InstructionStream& stream,
                           const HardwareConfig& hw) const {
  (void)stream;
  (void)hw;
  throw ConfigError("backend '" + name() +
                    "' emits artifacts but cannot execute them; use the "
                    "'sim' backend to run an instruction stream");
}

bool BackendRegistry::add(const std::string& key, Factory factory) {
  return backend_store().add("backend", key, std::move(factory));
}

std::unique_ptr<Backend> BackendRegistry::create(const std::string& key) {
  return backend_store().get("backend", key)();
}

bool BackendRegistry::contains(const std::string& key) {
  return backend_store().contains(key);
}

std::vector<std::string> BackendRegistry::keys() {
  return backend_store().keys();
}

}  // namespace pimcomp
