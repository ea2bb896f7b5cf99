#ifndef PIMCOMP_PERFBENCH_BENCH_HPP
#define PIMCOMP_PERFBENCH_BENCH_HPP

// Shared plumbing of the repository benchmark (see perfbench/README.md):
// statistics, the in-memory span recorder, the per-run report, and the key
// specs every workload compiles.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/thread_annotations.hpp"
#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  std::string trace_file;  ///< Chrome trace output of the traced run
};

/// Setups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

double ms_since(Clock::time_point start);

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);
/// Smallest value; the estimator for one fixed piece of work timed at
/// several moments of a run. The host only ever adds time to such work
/// (interference comes in bursts), so the minimum moves far less from run
/// to run than the median does.
double minimum(const std::vector<double>& values);

/// The highest of p99 / p90 / p50 that still has at least ten samples
/// beyond it (the median when there are fewer than twenty samples).
struct Tail {
  double value = 0.0;
  std::string label;
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<double>& values);

// --- tracing --------------------------------------------------------------

/// In-memory span recorder. Spans are named "<layer>.<what>"; the layer is
/// a library module (graph, partition, mapping, schedule, sim, core, cache,
/// serve, fleet, json) or "bench"/"client"/"probe" for the benchmark's own
/// roots. Disabled
/// (the untraced run) every call is a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string detail;  ///< scenario or key label, for grouping
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t trace = 0;
    int thread = 0;
    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  static Tracer& get();
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread. `new_trace` starts a fresh trace
  /// id (one per request or scenario); otherwise the span joins the trace
  /// of the innermost open span on this thread. Returns 0 when disabled.
  std::uint64_t begin(const std::string& name, const std::string& detail = {},
                      bool new_trace = false);
  void end(std::uint64_t id);

  std::vector<Span> spans() const;
  /// Durations (ms) of the closed spans called `name` whose detail starts
  /// with `prefix`; `self` subtracts the time their child spans cover.
  std::vector<double> durations(const std::string& name,
                                const std::string& prefix, bool self) const;
  /// Per-detail median of those durations, summed over details (ms).
  double sum_of_medians(const std::string& name,
                        const std::string& prefix) const;

  /// Writes every span as Chrome trace-event JSON.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable pimcomp::Mutex mutex_;
  std::vector<Span> spans_ PIMCOMP_GUARDED_BY(mutex_);
  std::uint64_t next_id_ PIMCOMP_GUARDED_BY(mutex_) = 1;
};

/// RAII span around one call into a library module.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, const std::string& detail = {},
                      bool new_trace = false)
      : id_(Tracer::get().begin(name, detail, new_trace)) {}
  ~ScopedSpan() { Tracer::get().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_;
};

/// Records every pipeline stage as a span ("partition.stage",
/// "mapping.stage", "schedule.stage", "backend.stage") under whatever span
/// the compiling thread has open.
class StageSpans final : public pimcomp::PipelineObserver {
 public:
  std::string detail;  ///< label given to the next compile's stage spans

  void on_stage_begin(const pimcomp::StageInfo& info) override;
  void on_stage_end(const pimcomp::StageInfo& info) override;

 private:
  std::vector<std::uint64_t> open_;  // stages nest strictly on one thread
};

/// Prints the per-layer self-time table of the spans under the roots
/// called `root` (one per scenario or replayed request) and returns each
/// layer's self time in ms per root; "unattributed" is the roots' own time.
std::map<std::string, double> print_self_time_table(const std::string& root);

// --- report ----------------------------------------------------------------

/// What one workload run produces. End-to-end metrics matter to the
/// untraced run, per-layer ones to the traced run; `exact` holds the
/// deterministic values the repeat guard compares across runs.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, double> exact;

  void e2e(const std::string& name, double value) { end_to_end[name] = value; }
  void layer(const std::string& name, double value) { per_layer[name] = value; }
  /// A failed operation: counted and explained, the run stays usable.
  void op_failed(const std::string& why);
  /// A broken invariant: the run's output is not trusted.
  void broken(const std::string& why);
};

// --- compile keys --------------------------------------------------------------

/// One compile scenario of a workload: a zoo model at a resolution, a mode,
/// a parallelism degree, a GA budget and seed.
struct Key {
  std::string model;
  int input = 64;
  pimcomp::PipelineMode mode = pimcomp::PipelineMode::kHighThroughput;
  int parallelism = 20;
  int population = 100;
  int generations = 200;
  std::uint64_t seed = 1;
  std::string mapper = "ga";

  std::string label() const;
  pimcomp::CompileOptions options() const;
  /// Single-scenario request for the daemons, simulation on; cores are
  /// auto-fitted.
  pimcomp::serve::CompileRequest request() const;
};

/// split_seed(seed, index) cut to 53 bits: the wire carries numbers as
/// doubles, so a larger seed would reach the daemon rounded.
std::uint64_t wire_seed(std::uint64_t seed, std::uint64_t index);

/// Throws unless the result is internally valid and its simulation ran
/// to completion.
void check_result(const pimcomp::CompileResult& result,
                  const pimcomp::SimReport& sim);

/// Canonical text of the deterministic fields of an outcome (compile
/// report minus stage timings, plus the simulation report), as it reads
/// after one trip over the wire.
std::string outcome_digest(const pimcomp::Json& compile,
                           const pimcomp::Json& simulation);
std::string result_digest(const pimcomp::CompileResult& result,
                          const pimcomp::SimReport& sim);

/// (hits, lookups) of one cache tier in a daemon's `stats` payload;
/// (0, 0) when the daemon has no such tier.
std::pair<double, double> tier_counts(const pimcomp::Json& stats,
                                      const std::string& tier);

/// What a daemon does to a request line and to its reply frames, for the
/// replays: each runs under a "serve.request_codec" / "serve.reply_codec"
/// span labelled `detail`.
pimcomp::serve::CompileRequest request_codec(
    const pimcomp::serve::CompileRequest& request, const std::string& detail);
void reply_codec(const pimcomp::CompileResult& result,
                 const pimcomp::SimReport& sim, const std::string& detail);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// "HT" / "LL".
const char* mode_tag(pimcomp::PipelineMode mode);

// --- workloads ---------------------------------------------------------------

Report run_zoo_compile(const Args& args);
Report run_fleet_churn(const Args& args);

}  // namespace perfbench

#endif  // PIMCOMP_PERFBENCH_BENCH_HPP
