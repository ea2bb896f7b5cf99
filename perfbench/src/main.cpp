// Entry point of the benchmark binary. perfbench/run.py builds it and runs
// one workload per process:
//
//   pimcomp_perfbench --workload zoo-compile|fleet-churn
//                     --seed N --seconds S [--trace-file PATH]
//
// The working directory is the run's scratch directory (sockets, cache
// tiers). A trace file enables span recording. The last stdout line is the
// raw report, which run.py turns into the result line:
//   {"correct": .., "attempted": .., "failed": ..,
//    "end_to_end": {..}, "per_layer": {..}, "exact": {..}}

#include <cmath>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "common/logging.hpp"

namespace {

using namespace perfbench;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return args;
}

pimcomp::Json to_json(const std::map<std::string, double>& values,
                      Report& report) {
  pimcomp::Json out = pimcomp::Json::object();
  for (const auto& [name, value] : values) {
    if (!std::isfinite(value)) report.broken(name + " is not finite");
    out[name] = std::isfinite(value) ? value : 0.0;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    pimcomp::Logger::set_level(pimcomp::LogLevel::kWarn);
    if (!args.trace_file.empty()) Tracer::get().enable();

    Report report;
    if (args.workload == "zoo-compile") {
      report = run_zoo_compile(args);
    } else if (args.workload == "fleet-churn") {
      report = run_fleet_churn(args);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    report.e2e("peak_rss_mb", peak_rss_mb());
    if (!args.trace_file.empty()) {
      Tracer::get().write_chrome_trace(args.trace_file);
    }

    pimcomp::Json out = pimcomp::Json::object();
    out["end_to_end"] = to_json(report.end_to_end, report);
    out["per_layer"] = to_json(report.per_layer, report);
    out["exact"] = to_json(report.exact, report);
    out["correct"] = report.correct;
    out["attempted"] = report.attempted;
    out["failed"] = report.failed;
    std::cout << out.dump(-1) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pimcomp_perfbench: " << e.what() << '\n';
    return 1;
  }
}
