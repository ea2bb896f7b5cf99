#include "backend/instruction_stream.hpp"

#include <cstddef>
#include <iterator>
#include <utility>

#include "cache/cache_store.hpp"
#include "common/fnv1a.hpp"

namespace pimcomp {

namespace {

const char* mode_name(PipelineMode mode) {
  return mode == PipelineMode::kHighThroughput ? "ht" : "ll";
}

PipelineMode mode_from_name(const std::string& name) {
  if (name == "ht") return PipelineMode::kHighThroughput;
  if (name == "ll") return PipelineMode::kLowLatency;
  throw InstructionStreamError("instruction stream mode must be 'ht' or "
                               "'ll', got '" + name + "'");
}

/// The ISA mnemonics, indexed by OpKind: an ISA row's column 0. The wire
/// names are part of the schema (VALU is the VFU's instruction).
constexpr const char* kMnemonics[] = {"MVM",  "VALU", "SEND",
                                      "RECV", "LOAD", "STORE"};
static_assert(std::size(kMnemonics) ==
                  static_cast<std::size_t>(OpKind::kStoreGlobal) + 1,
              "one mnemonic per OpKind");

Json mnemonic(OpKind kind) {
  return kMnemonics[static_cast<std::size_t>(kind)];
}

OpKind kind_from_mnemonic(const Json& column) {
  const std::string& name = column.as_string();
  for (std::size_t k = 0; k < std::size(kMnemonics); ++k) {
    if (name == kMnemonics[k]) return static_cast<OpKind>(k);
  }
  throw InstructionStreamError("unknown opcode mnemonic '" + name + "'");
}

}  // namespace

void InstructionStream::validate() const {
  if (backend.empty()) {
    throw InstructionStreamError("instruction stream has no backend name");
  }
  if (parallelism_degree < 1) {
    throw InstructionStreamError(
        "instruction stream parallelism degree must be >= 1");
  }
  if (const auto violation = schedule_violation(schedule)) {
    throw InstructionStreamError("instruction stream " + *violation);
  }
}

InstructionStream InstructionStream::from_schedule(
    const Schedule& schedule, PipelineMode mode, int parallelism_degree,
    const std::string& backend, std::uint64_t mapping_key) {
  InstructionStream stream{backend, mapping_key, mode, parallelism_degree,
                           schedule};
  stream.validate();
  return stream;
}

std::uint64_t InstructionStream::content_fingerprint() const {
  const std::string canonical = to_json().dump(-1);
  return fnv1a(kFnv1aOffset, canonical.data(), canonical.size());
}

Json InstructionStream::to_json() const {
  Json json = Json::object();
  // Envelope first: a self-describing artifact survives being moved
  // between caches, files and wire frames.
  json["isa"] = kIsaVersion;
  json["backend"] = backend;
  json["mapping_key"] = cache_key_hex(mapping_key);
  json["mode"] = mode_name(mode);
  json["parallelism"] = parallelism_degree;
  json["ag_count"] = schedule.ag_count;
  json["total_ops"] = schedule.total_ops;
  json["spill_bytes"] = int64_array(schedule.spill_bytes);
  json["peak_local_bytes"] = int64_array(schedule.peak_local_bytes);
  Json cores = Json::array();
  for (const std::vector<Operation>& program : schedule.programs) {
    Json rows = Json::array();
    for (const Operation& op : program) {
      rows.push_back(operation_to_row(op, mnemonic));
    }
    cores.push_back(std::move(rows));
  }
  json["cores"] = std::move(cores);
  return json;
}

InstructionStream InstructionStream::from_json(const Json& json) {
  if (!json.is_object()) {
    throw InstructionStreamError("instruction stream must be a JSON object");
  }
  const int isa = static_cast<int>(json.get("isa", -1));
  if (isa != kIsaVersion) {
    throw InstructionStreamError(
        "instruction stream ISA version mismatch (artifact " +
        std::to_string(isa) + ", this build " + std::to_string(kIsaVersion) +
        ")");
  }
  InstructionStream stream;
  stream.backend = json.get("backend", std::string());
  const std::string key_hex = json.get("mapping_key", std::string());
  const std::optional<std::uint64_t> key = cache_key_from_hex(key_hex);
  if (!key.has_value()) {
    throw InstructionStreamError(
        "instruction stream mapping_key '" + key_hex +
        "' is not a 16-digit hex fingerprint");
  }
  stream.mapping_key = *key;
  stream.mode = mode_from_name(json.get("mode", std::string()));
  stream.parallelism_degree = static_cast<int>(json.get("parallelism", 0));
  Schedule& schedule = stream.schedule;
  schedule.ag_count = static_cast<int>(json.at("ag_count").as_int());
  schedule.total_ops = json.at("total_ops").as_int();
  schedule.spill_bytes = int64_vector(json.at("spill_bytes"));
  schedule.peak_local_bytes = int64_vector(json.at("peak_local_bytes"));
  const Json& cores = json.at("cores");
  if (!cores.is_array()) {
    throw InstructionStreamError("instruction stream cores must be an array");
  }
  schedule.programs.reserve(cores.size());
  for (std::size_t c = 0; c < cores.size(); ++c) {
    const Json& rows = cores.at(c);
    if (!rows.is_array()) {
      throw InstructionStreamError(
          "instruction stream core program must be an array");
    }
    std::vector<Operation> program;
    program.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::optional<Operation> op =
          operation_from_row(rows.at(i), kind_from_mnemonic);
      if (!op.has_value()) {
        throw InstructionStreamError("instruction row must be a 10-tuple");
      }
      program.push_back(*op);
    }
    schedule.programs.push_back(std::move(program));
  }
  stream.validate();
  return stream;
}

InstructionStream InstructionStream::from_json(
    const Json& json, std::uint64_t expected_mapping_key) {
  InstructionStream stream = from_json(json);
  if (stream.mapping_key != expected_mapping_key) {
    throw InstructionStreamError(
        "instruction stream is bound to mapping " +
        cache_key_hex(stream.mapping_key) +
        ", not the requesting compilation's " +
        cache_key_hex(expected_mapping_key) +
        " — refusing to serve a lowered program for a different schedule");
  }
  return stream;
}

}  // namespace pimcomp
