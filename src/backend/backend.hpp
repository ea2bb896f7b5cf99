#ifndef PIMCOMP_BACKEND_BACKEND_HPP
#define PIMCOMP_BACKEND_BACKEND_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/hardware_config.hpp"
#include "backend/instruction_stream.hpp"
#include "core/compiler.hpp"
#include "sim/sim_report.hpp"

namespace pimcomp {

/// Everything a backend may consult while lowering one compiled scenario.
/// Pointers are non-owning and valid for the duration of lower() only.
struct LowerInput {
  const Schedule* schedule = nullptr;
  const MappingSolution* solution = nullptr;
  const Graph* graph = nullptr;
  const HardwareConfig* hardware = nullptr;
  const CompileOptions* options = nullptr;

  /// The session's mapping cache key for this compilation; stamped into the
  /// emitted stream as its fingerprint binding (0 when the caller has no
  /// cache identity, e.g. the low-level Compiler without a session).
  std::uint64_t mapping_key = 0;
};

/// A compilation backend: lowers a compiled (Schedule, MappingSolution,
/// Graph, HardwareConfig) into the versioned InstructionStream artifact,
/// and — when it models a target — executes such a stream. Implementations
/// self-register with BackendRegistry from their own translation unit
/// (PIMCOMP_REGISTER_BACKEND), mirroring the mapper/scheduler pattern, so
/// adding a backend never touches src/core/.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Strategy name for reports ("isa-json", "sim", ...).
  virtual std::string name() const = 0;

  /// Lowers one compiled scenario. The result always validate()s and is
  /// bound to input.mapping_key. Default: the reference emission, the
  /// schedule verbatim (InstructionStream::from_schedule) under name().
  virtual InstructionStream lower(const LowerInput& input) const;

  /// True when execute() is implemented (the `sim` backend); pure emitters
  /// return false and execute() throws ConfigError.
  virtual bool can_execute() const { return false; }

  /// Executes a lowered stream against a hardware model and reports the
  /// measurements. Default: unsupported.
  virtual SimReport execute(const InstructionStream& stream,
                            const HardwareConfig& hw) const;
};

/// String-keyed factory of backends ("isa-json", "sim", ...).
class BackendRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Backend>()>;

  /// Registers a factory under `key`; returns true (static-init friendly).
  static bool add(const std::string& key, Factory factory);

  /// Instantiates the backend registered under `key`; throws ConfigError
  /// for unknown keys, listing what is registered.
  static std::unique_ptr<Backend> create(const std::string& key);

  static bool contains(const std::string& key);

  /// Registered keys, sorted (the CLI's --list-backends).
  static std::vector<std::string> keys();
};

#define PIMCOMP_BACKEND_CONCAT_INNER(a, b) a##b
#define PIMCOMP_BACKEND_CONCAT(a, b) PIMCOMP_BACKEND_CONCAT_INNER(a, b)

/// Self-registration hook: one invocation at namespace scope in the
/// backend's own .cpp registers it for the whole program.
#define PIMCOMP_REGISTER_BACKEND(key, factory)                      \
  [[maybe_unused]] static const bool PIMCOMP_BACKEND_CONCAT(        \
      pimcomp_backend_registered_, __COUNTER__) =                   \
      ::pimcomp::BackendRegistry::add(key, factory)

}  // namespace pimcomp

#endif  // PIMCOMP_BACKEND_BACKEND_HPP
