// The `sim` backend: executes an instruction-stream artifact on src/sim/'s
// cycle-accurate engine. Every opcode maps one-to-one onto an operation
// kind, so execute() rebuilds the schedule the stream was lowered from and
// runs Simulator on it — one engine, hence reports bit-identical to
// Simulator::run() on that schedule (tests/test_backend.cpp pins this).

#include "backend/backend.hpp"
#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace pimcomp {

namespace {

class SimBackend : public Backend {
 public:
  std::string name() const override { return "sim"; }

  InstructionStream lower(const LowerInput& input) const override {
    PIMCOMP_CHECK(input.schedule != nullptr && input.options != nullptr,
                  "sim backend needs a schedule and options");
    return InstructionStream::from_schedule(
        *input.schedule, input.options->mode,
        input.options->parallelism_degree, name(), input.mapping_key);
  }

  bool can_execute() const override { return true; }

  SimReport execute(const InstructionStream& stream,
                    const HardwareConfig& hw) const override {
    stream.validate();
    return Simulator(hw, {stream.parallelism_degree, stream.mode})
        .run(stream.to_schedule());
  }
};

}  // namespace

PIMCOMP_REGISTER_BACKEND("sim", [] { return std::make_unique<SimBackend>(); });

}  // namespace pimcomp
