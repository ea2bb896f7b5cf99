#ifndef PIMCOMP_BACKEND_INSTRUCTION_STREAM_HPP
#define PIMCOMP_BACKEND_INSTRUCTION_STREAM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "mapping/mapper.hpp"
#include "schedule/operation.hpp"

namespace pimcomp {

/// Version of the instruction-stream artifact schema. Any change to the
/// JSON layout, the opcode set, or the per-row field order requires bumping
/// this (and the pinned goldens in tests/test_backend.cpp) in one commit —
/// the same discipline kCacheSchemaVersion enforces for mapping artifacts.
inline constexpr int kIsaVersion = 1;

/// The abstract PIM ISA the backends emit. One opcode per execution-model
/// operation class (paper §III-B); the mnemonics are the wire names.
enum class Opcode : std::uint8_t {
  kMvm,    ///< "MVM"   one MVM on one Array Group's crossbars
  kValu,   ///< "VALU"  vector work on the VFU lanes
  kSend,   ///< "SEND"  enqueue a message toward a peer core (non-blocking)
  kRecv,   ///< "RECV"  dequeue a message from a peer core (blocking)
  kLoad,   ///< "LOAD"  global memory -> local scratchpad
  kStore,  ///< "STORE" local scratchpad -> global memory
};

/// Wire mnemonic ("MVM", "VALU", ...).
std::string to_string(Opcode opcode);
Opcode opcode_from_string(const std::string& mnemonic);

/// Lossless opcode <-> scheduler operation-kind mapping.
Opcode opcode_from_op_kind(OpKind kind);
OpKind op_kind_from_opcode(Opcode opcode);

/// One lowered instruction. Field-for-field lossless against
/// schedule/operation.hpp's Operation, so the `sim` backend can run a
/// stream on the simulator by converting it back (to_schedule()):
///  * `ag` is the wait handle — the Array Group whose most recent MVM must
///    complete before this instruction starts (for MVM: the AG it runs on);
///  * `tag` is the logical channel class for SEND/RECV pairing;
///  * `local_usage` is the absolute scratchpad occupancy after the
///    instruction, or -1 when unchanged (operand-buffer accounting).
struct Instruction {
  Opcode opcode = Opcode::kValu;
  NodeId node = -1;
  std::int32_t ag = -1;
  std::int32_t window = -1;
  std::int64_t bytes = 0;
  std::int64_t elements = 0;
  std::int32_t peer = -1;
  std::int32_t tag = 0;
  std::int32_t xbars = 0;
  std::int64_t local_usage = -1;
};

/// Raised when an instruction-stream artifact is malformed, violates an
/// invariant, or is bound to a different compilation than the requester's.
class InstructionStreamError : public Error {
 public:
  explicit InstructionStreamError(const std::string& message)
      : Error(message) {}
};

/// A whole lowered program: per-core instruction lists plus the facts an
/// executor needs to size its state, bound to the compilation that produced
/// it by `mapping_key` (the session's mapping cache key). The JSON form is
/// the exchange artifact of docs/backends.md — versioned, fingerprinted and
/// schema-checked, following src/cache/artifact.{hpp,cpp}.
struct InstructionStream {
  std::string backend;             ///< BackendRegistry key that emitted it
  std::uint64_t mapping_key = 0;   ///< fingerprint binding (0 = unbound)
  PipelineMode mode = PipelineMode::kHighThroughput;
  int parallelism_degree = 20;     ///< MVM issue-bandwidth limit per core
  int ag_count = 0;                ///< AG instances (wait-handle domain)
  std::int64_t total_ops = 0;
  std::vector<std::vector<Instruction>> cores;   ///< per-core programs
  std::vector<std::int64_t> spill_bytes;         ///< per-core spill traffic
  std::vector<std::int64_t> peak_local_bytes;    ///< per-core peak occupancy

  int core_count() const { return static_cast<int>(cores.size()); }

  /// Proves the stream's internal invariants (counts consistent, wait
  /// handles in range, comm peers valid, payloads non-negative). Throws
  /// InstructionStreamError; from_json always re-proves on parse.
  void validate() const;

  /// Lossless conversion back to the scheduler's representation (tests and
  /// legacy consumers).
  Schedule to_schedule() const;

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
