// Sensitivity bench (beyond the paper's figures): how the compiled result
// responds to the two main hardware levers — crossbar geometry and the
// parallelism degree (on-chip bandwidth).

#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace pimcomp;
  using namespace pimcomp::bench;
  const BenchConfig cfg = BenchConfig::from_env();

  // ---- Crossbar geometry sweep (LL latency, resnet18) ----------------------
  {
    Table table("Crossbar-size sensitivity: resnet18, LL mode, P=20");
    table.set_header({"crossbar", "xbars/core", "cores", "LL latency (us)",
                      "HT makespan (us)", "xbar utilization"});
    struct Geometry {
      int rows, cols, per_core;
    };
    const Geometry geometries[] = {
        {64, 64, 128}, {128, 128, 64}, {256, 256, 16}};
    // One session, one model build; each geometry contributes an LL and an
    // HT scenario with a hardware override (its workload is cached per
    // hardware fingerprint) and the whole sweep is one parallel batch.
    CompilerSession session(bench_model("resnet18", cfg),
                            HardwareConfig::puma_default());
    session.set_jobs(cfg.jobs);
    std::vector<Scenario> batch;
    for (const Geometry& g : geometries) {
      HardwareConfig hw = HardwareConfig::puma_default();
      hw.xbar_rows = g.rows;
      hw.xbar_cols = g.cols;
      hw.xbars_per_core = g.per_core;
      hw = fit_core_count(session.graph(), hw, 3.0);
      const std::string label =
          std::to_string(g.rows) + "x" + std::to_string(g.cols);
      batch.push_back(Scenario{
          label, bench_options(cfg, PipelineMode::kLowLatency, 20), hw});
      batch.push_back(Scenario{
          label, bench_options(cfg, PipelineMode::kHighThroughput, 20), hw});
    }
    const std::vector<ScenarioOutcome> outcomes =
        session.compile_all(std::move(batch));
    for (std::size_t i = 0; i + 1 < outcomes.size(); i += 2) {
      const Geometry& g = geometries[i / 2];
      const ScenarioOutcome& ll_outcome = outcomes[i];
      const ScenarioOutcome& ht_outcome = outcomes[i + 1];
      if (!ll_outcome.ok() || !ht_outcome.ok()) {
        std::cerr << "geometry '" << ll_outcome.label << "' failed: "
                  << (ll_outcome.ok() ? ht_outcome.error : ll_outcome.error)
                  << '\n';
        continue;
      }
      const CompileResult& ll = *ll_outcome.result;
      const SimReport ll_sim = session.simulate(ll);
      const SimReport ht_sim = session.simulate(*ht_outcome.result);
      const double util =
          static_cast<double>(ll.solution.total_xbars_used()) /
          static_cast<double>(ll.workload->total_xbars_available());
      table.add_row({ll_outcome.label, std::to_string(g.per_core),
                     std::to_string(ll.workload->hardware().core_count),
                     format_double(to_us(ll_sim.makespan), 1),
                     format_double(to_us(ht_sim.makespan), 1),
                     format_double(100 * util, 1) + "%"});
      std::cout << "." << std::flush;
    }
    std::cout << "\n\n";
    table.print();
    std::cout << '\n';
  }

  // ---- Parallelism-degree sweep (both modes, googlenet) --------------------
  {
    CompilerSession session = bench_session("googlenet", cfg);
    Table table("Parallelism sensitivity: googlenet");
    table.set_header({"parallelism", "HT makespan (us)", "LL latency (us)",
                      "HT energy (uJ)"});
    for (int p : {1, 5, 20, 40, 200, 2000}) {
      const RunOutcome ht = run_one(
          session, bench_options(cfg, PipelineMode::kHighThroughput, p));
      const RunOutcome ll = run_one(
          session, bench_options(cfg, PipelineMode::kLowLatency, p));
      table.add_row({std::to_string(p),
                     format_double(to_us(ht.sim.makespan), 1),
                     format_double(to_us(ll.sim.makespan), 1),
                     format_double(to_uj(ht.sim.total_energy()), 0)});
      std::cout << "." << std::flush;
    }
    std::cout << "\n\n";
    table.print();
  }
  return 0;
}
