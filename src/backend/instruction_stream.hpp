#ifndef PIMCOMP_BACKEND_INSTRUCTION_STREAM_HPP
#define PIMCOMP_BACKEND_INSTRUCTION_STREAM_HPP

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "mapping/mapper.hpp"
#include "schedule/operation.hpp"

namespace pimcomp {

/// Version of the instruction-stream artifact schema. Any change to the
/// JSON layout, the mnemonic set, or the per-row field order requires
/// bumping this (and the pinned goldens in tests/test_backend.cpp) in one
/// commit — the same discipline kCacheSchemaVersion enforces for mapping
/// artifacts.
inline constexpr int kIsaVersion = 1;

/// Raised when an instruction-stream artifact is malformed, violates an
/// invariant, or is bound to a different compilation than the requester's.
class InstructionStreamError : public Error {
 public:
  explicit InstructionStreamError(const std::string& message)
      : Error(message) {}
};

/// A whole lowered program: the scheduler's per-core Operation programs
/// plus the facts an executor needs to run them, bound to the compilation
/// that produced it by `mapping_key` (the session's mapping cache key). The
/// JSON form is the exchange artifact of docs/backends.md — versioned,
/// fingerprinted and schema-checked, following src/cache/artifact.{hpp,cpp}.
struct InstructionStream {
  std::string backend;             ///< BackendRegistry key that emitted it
  std::uint64_t mapping_key = 0;   ///< fingerprint binding (0 = unbound)
  PipelineMode mode = PipelineMode::kHighThroughput;
  int parallelism_degree = 20;     ///< MVM issue-bandwidth limit per core
  Schedule schedule;               ///< the per-core programs, verbatim

  /// Proves the stream's invariants (a backend name, a parallelism degree
  /// >= 1, and schedule_violation()'s op invariants). Throws
  /// InstructionStreamError; from_json always re-proves on parse.
  void validate() const;

  /// Lowers a schedule verbatim — the reference emission every backend
  /// builds on.
  static InstructionStream from_schedule(const Schedule& schedule,
                                         PipelineMode mode,
                                         int parallelism_degree,
                                         const std::string& backend,
                                         std::uint64_t mapping_key);

  /// Content hash of the canonical (compact) JSON serialization — the
  /// artifact identity pinned by the golden tests and reported by tooling.
  std::uint64_t content_fingerprint() const;

  Json to_json() const;

  /// Parses and validate()s. The `expected_mapping_key` overload
  /// additionally rejects a stream bound to a different compilation —
  /// serving a lowered program for the wrong schedule is the cross-process
  /// equivalent of a cache collision.
  static InstructionStream from_json(const Json& json);
  static InstructionStream from_json(const Json& json,
                                     std::uint64_t expected_mapping_key);
};

}  // namespace pimcomp

#endif  // PIMCOMP_BACKEND_INSTRUCTION_STREAM_HPP
