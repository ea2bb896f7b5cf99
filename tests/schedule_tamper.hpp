// Forges well-formed cache artifacts whose schedule breaks an op invariant,
// for the tests proving such artifacts read as cache misses.

#ifndef PIMCOMP_TESTS_SCHEDULE_TAMPER_HPP
#define PIMCOMP_TESTS_SCHEDULE_TAMPER_HPP

#include <gtest/gtest.h>

#include <utility>

#include "common/json.hpp"
#include "schedule/operation.hpp"

namespace pimcomp {

/// `artifact` with column `column` of every `kind` row of its schedule set
/// to `value` (columns: kind, node, ag, window, bytes, elements, peer, tag,
/// xbars, local_usage).
inline Json with_tampered_rows(const Json& artifact, OpKind kind,
                               std::size_t column, std::int64_t value) {
  Json schedule = artifact.at("schedule");
  const Json& programs = artifact.at("schedule").at("programs");
  Json rebuilt = Json::array();
  int tampered = 0;
  for (std::size_t c = 0; c < programs.size(); ++c) {
    Json rows = Json::array();
    for (std::size_t i = 0; i < programs.at(c).size(); ++i) {
      const Json& row = programs.at(c).at(i);
      const bool hit = row.at(std::size_t(0)).as_int() == int(kind);
      Json edited = Json::array();
      for (std::size_t k = 0; k < row.size(); ++k) {
        edited.push_back(hit && k == column ? Json(value) : row.at(k));
      }
      rows.push_back(std::move(edited));
      tampered += hit ? 1 : 0;
    }
    rebuilt.push_back(std::move(rows));
  }
  EXPECT_GT(tampered, 0) << "no " << to_string(kind) << " op to tamper with";
  schedule["programs"] = std::move(rebuilt);
  Json result = artifact;
  result["schedule"] = std::move(schedule);
  return result;
}

}  // namespace pimcomp

#endif  // PIMCOMP_TESTS_SCHEDULE_TAMPER_HPP
