// The `sim` backend: lowers like isa-json (Backend's default lower()) and
// executes an instruction stream on src/sim/'s cycle-accurate engine. The
// stream carries the scheduler's own Operations, so execute() runs
// Simulator on them directly — one engine, hence reports bit-identical to
// Simulator::run() on the source schedule (tests/test_backend.cpp pins
// this).

#include "backend/backend.hpp"
#include "sim/simulator.hpp"

namespace pimcomp {

namespace {

class SimBackend : public Backend {
 public:
  std::string name() const override { return "sim"; }

  bool can_execute() const override { return true; }

  SimReport execute(const InstructionStream& stream,
                    const HardwareConfig& hw) const override {
    stream.validate();
    return Simulator(hw, {stream.parallelism_degree, stream.mode})
        .run(stream.schedule);
  }
};

}  // namespace

PIMCOMP_REGISTER_BACKEND("sim", [] { return std::make_unique<SimBackend>(); });

}  // namespace pimcomp
