// The reference emitter: lowers a compiled scenario into the canonical
// instruction-stream artifact, verbatim and losslessly (Backend's default
// lower()). Every other backend is measured against this emission (the
// golden files of tests/test_backend.cpp and the JSON schema of
// scripts/isa_artifact_schema.json describe exactly what it produces).

#include "backend/backend.hpp"

namespace pimcomp {

namespace {

class IsaJsonBackend : public Backend {
 public:
  std::string name() const override { return "isa-json"; }
};

}  // namespace

PIMCOMP_REGISTER_BACKEND("isa-json", [] {
  return std::make_unique<IsaJsonBackend>();
});

}  // namespace pimcomp
