#include "schedule/operation.hpp"

#include <limits>

#include "common/json.hpp"

namespace pimcomp {

namespace {

/// An int32 row column: a value outside int32 is rejected, never truncated
/// into range (where it could pass schedule_violation as a different op).
std::int32_t int32_column(const Json& row, std::size_t column) {
  const std::int64_t value = row.at(column).as_int();
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    throw JsonError("op row column " + std::to_string(column) + " value " +
                    std::to_string(value) + " does not fit 32 bits");
  }
  return static_cast<std::int32_t>(value);
}

}  // namespace

std::string to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kMvm: return "MVM";
    case OpKind::kVfu: return "VFU";
    case OpKind::kCommSend: return "SEND";
    case OpKind::kCommRecv: return "RECV";
    case OpKind::kLoadGlobal: return "LOAD";
    case OpKind::kStoreGlobal: return "STORE";
  }
  return "?";
}

std::int64_t Schedule::count(OpKind kind) const {
  std::int64_t n = 0;
  for (const auto& program : programs) {
    for (const Operation& op : program) {
      if (op.kind == kind) ++n;
    }
  }
  return n;
}

std::int64_t Schedule::total_bytes(OpKind kind) const {
  std::int64_t n = 0;
  for (const auto& program : programs) {
    for (const Operation& op : program) {
      if (op.kind == kind) n += op.bytes;
    }
  }
  return n;
}

Json operation_to_row(const Operation& op, Json (*encode_kind)(OpKind)) {
  Json row = Json::array();
  row.push_back(encode_kind(op.kind));
  row.push_back(static_cast<std::int64_t>(op.node));
  row.push_back(static_cast<std::int64_t>(op.ag));
  row.push_back(static_cast<std::int64_t>(op.window));
  row.push_back(op.bytes);
  row.push_back(op.elements);
  row.push_back(static_cast<std::int64_t>(op.peer));
  row.push_back(static_cast<std::int64_t>(op.tag));
  row.push_back(static_cast<std::int64_t>(op.xbars));
  row.push_back(op.local_usage);
  return row;
}

std::optional<Operation> operation_from_row(
    const Json& row, OpKind (*decode_kind)(const Json&)) {
  if (!row.is_array() || row.size() != 10) return std::nullopt;
  Operation op;
  op.kind = decode_kind(row.at(std::size_t(0)));
  op.node = int32_column(row, 1);
  op.ag = int32_column(row, 2);
  op.window = int32_column(row, 3);
  op.bytes = row.at(std::size_t(4)).as_int();
  op.elements = row.at(std::size_t(5)).as_int();
  op.peer = int32_column(row, 6);
  op.tag = int32_column(row, 7);
  op.xbars = int32_column(row, 8);
  op.local_usage = row.at(std::size_t(9)).as_int();
  return op;
}

std::optional<std::string> schedule_violation(const Schedule& schedule) {
  const int ag_count = schedule.ag_count;
  const int cores = schedule.core_count();
  if (ag_count < 0) return "ag_count is negative";
  if (static_cast<int>(schedule.spill_bytes.size()) != cores ||
      static_cast<int>(schedule.peak_local_bytes.size()) != cores) {
    return "per-core metadata does not match its core count (" +
           std::to_string(cores) + " cores, " +
           std::to_string(schedule.spill_bytes.size()) + " spill entries, " +
           std::to_string(schedule.peak_local_bytes.size()) +
           " peak entries)";
  }
  std::int64_t ops = 0;
  for (int c = 0; c < cores; ++c) {
    for (const Operation& op : schedule.programs[static_cast<std::size_t>(c)]) {
      ++ops;
      // Only a violation pays for its message.
      const auto where = [&] {
        return to_string(op.kind) + " on core " + std::to_string(c);
      };
      if (op.kind == OpKind::kMvm) {
        if (op.ag < 0 || op.ag >= ag_count) {
          return where() + " references AG " + std::to_string(op.ag) +
                 " outside [0, " + std::to_string(ag_count) + ")";
        }
        if (op.xbars < 0) return where() + " has a negative crossbar count";
      } else if (op.ag < -1 || op.ag >= ag_count) {
        return where() + " waits on AG " + std::to_string(op.ag) +
               " outside [-1, " + std::to_string(ag_count) + ")";
      }
      const bool is_comm =
          op.kind == OpKind::kCommSend || op.kind == OpKind::kCommRecv;
      if (is_comm && (op.peer < 0 || op.peer >= cores)) {
        return where() + " targets peer " + std::to_string(op.peer) +
               " outside [0, " + std::to_string(cores) + ")";
      }
      if (op.bytes < 0) return where() + " has negative payload bytes";
      if (op.elements < 0) return where() + " has a negative element count";
      if (op.local_usage < -1) return where() + " has local usage below -1";
    }
  }
  if (ops != schedule.total_ops) {
    return "total_ops (" + std::to_string(schedule.total_ops) +
           ") disagrees with its own programs (" + std::to_string(ops) + ")";
  }
  return std::nullopt;
}

}  // namespace pimcomp
