#ifndef PIMCOMP_SCHEDULE_OPERATION_HPP
#define PIMCOMP_SCHEDULE_OPERATION_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/node.hpp"

namespace pimcomp {

class Json;  // common/json.hpp

/// Basic operation classes of the execution model (paper §III-B): MVM by the
/// PIM matrix unit, vector work by the VFU, inter-core communication, and
/// global memory access.
enum class OpKind : std::uint8_t {
  kMvm,          ///< one MVM on one Array Group's crossbars
  kVfu,          ///< vector work (accumulate/activate/pool/eltwise/softmax)
  kCommSend,     ///< enqueue a message toward another core (non-blocking)
  kCommRecv,     ///< dequeue a message from another core (blocking)
  kLoadGlobal,   ///< read from global memory into local memory
  kStoreGlobal,  ///< write from local memory to global memory
};

std::string to_string(OpKind kind);

/// One operation in a core's static operation sequence. The format is
/// deliberately lean (the streams run to millions of entries): data
/// dependencies on out-of-order MVM completions are expressed via the `ag`
/// wait handle, everything else is program order.
struct Operation {
  OpKind kind = OpKind::kVfu;
  NodeId node = -1;

  /// kMvm: the global AG-instance index this MVM runs on (also its wait
  /// handle). Other kinds: the AG whose most recent MVM must complete before
  /// this op starts, or -1 for no MVM dependency.
  std::int32_t ag = -1;

  /// Sliding-window index for MVMs (diagnostics).
  std::int32_t window = -1;

  /// Payload size for comm/memory ops, in bytes.
  std::int64_t bytes = 0;

  /// Element count for VFU ops.
  std::int64_t elements = 0;

  /// Peer core for comm ops.
  std::int32_t peer = -1;

  /// Logical channel class for comm ops: messages only pair with the same
  /// tag on the same (src, dst) pair. The LL scheduler separates row-packet
  /// forwarding (tag 0) from partial-sum accumulation (tag 1) so their FIFO
  /// orders stay independent.
  std::int32_t tag = 0;

  /// kMvm: crossbars energized (for energy accounting).
  std::int32_t xbars = 0;

  /// Absolute local-memory bytes in use after this op, or -1 when unchanged.
  /// The simulator integrates this into the time-weighted usage of Fig 10.
  std::int64_t local_usage = -1;
};

/// A whole compiled dataflow: one static operation sequence per core plus
/// the facts the simulator needs to size its state.
struct Schedule {
  std::vector<std::vector<Operation>> programs;  ///< per core
  int ag_count = 0;          ///< AG instances (wait-handle domain)
  std::int64_t total_ops = 0;

  /// Extra global traffic from local-memory overflow spills, per core
  /// (schedule-time estimate from the memory planner).
  std::vector<std::int64_t> spill_bytes;

  /// Peak local-memory bytes per core (schedule-time).
  std::vector<std::int64_t> peak_local_bytes;

  int core_count() const { return static_cast<int>(programs.size()); }

  /// Ops of one kind across all cores (test/report helper).
  std::int64_t count(OpKind kind) const;

  /// Sum of a payload field across all cores (test/report helper).
  std::int64_t total_bytes(OpKind kind) const;
};

/// The op-row codec of both persisted forms of a schedule (the cache
/// artifact and the ISA stream). A row is a fixed 10-tuple
///   [kind, node, ag, window, bytes, elements, peer, tag, xbars, local_usage]
/// whose order is part of both schemas: changing it bumps kCacheSchemaVersion
/// and kIsaVersion. Column 0 belongs to each artifact (an integer kind in
/// cache artifacts, a mnemonic in ISA streams), so the caller passes its
/// column-0 codec.
Json operation_to_row(const Operation& op, Json (*encode_kind)(OpKind));

/// Inverse of operation_to_row; nullopt when `row` is not a 10-tuple, so
/// each artifact reports that with its own error type. `decode_kind`
/// throws on an unknown column 0; a non-integer column, or one outside its
/// field's range, throws JsonError.
std::optional<Operation> operation_from_row(const Json& row,
                                            OpKind (*decode_kind)(const Json&));

/// The op invariants every consumer of a schedule may rely on (the
/// simulator indexes its AG and channel state by `ag` and `peer` without
/// bounds checks): MVM `ag` in [0, ag_count), other ops' `ag` in
/// [-1, ag_count), SEND/RECV `peer` in [0, cores), non-negative `bytes` and
/// `elements`, MVM `xbars` >= 0, `local_usage` >= -1, per-core metadata
/// sized to the core count, and `total_ops` equal to the programs' length.
/// Returns the first violation, or nullopt. Both artifact decoders run it
/// and throw their own error type, so an untrusted schedule never reaches
/// the simulator.
std::optional<std::string> schedule_violation(const Schedule& schedule);

}  // namespace pimcomp

#endif  // PIMCOMP_SCHEDULE_OPERATION_HPP
