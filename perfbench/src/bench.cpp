#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <unordered_map>

#include "common/random.hpp"
#include "core/compile_report.hpp"

namespace perfbench {

using namespace pimcomp;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// --- statistics -----------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double minimum(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

Tail tail_of(const std::vector<double>& values) {
  const auto n = static_cast<double>(values.size());
  for (const auto& [q, label] : {std::pair{0.99, "p99"}, std::pair{0.90, "p90"}}) {
    const auto beyond = static_cast<std::size_t>(std::floor(n * (1.0 - q)));
    if (beyond >= 10) return {quantile(values, q), label, beyond};
  }
  return {quantile(values, 0.5), "p50",
          static_cast<std::size_t>(std::floor(n * 0.5))};
}

// --- tracing --------------------------------------------------------------

namespace {

struct ThreadSpans {
  int thread = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> open;  // (id, trace)
};

ThreadSpans& thread_spans() {
  static std::atomic<int> next_thread{1};
  thread_local ThreadSpans local{next_thread.fetch_add(1), {}};
  return local;
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer& Tracer::get() {
  // pimcomp-lint: internally-synchronized (the span list is mutex-guarded)
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::begin(const std::string& name, const std::string& detail,
                            bool new_trace) {
  if (!enabled_) return 0;
  ThreadSpans& local = thread_spans();
  Span span;
  span.name = name;
  span.detail = detail;
  span.thread = local.thread;
  span.start_ns = ns_between(origin_, Clock::now());
  {
    MutexLock lock(mutex_);
    span.id = next_id_++;
    if (!new_trace && !local.open.empty()) {
      span.parent = local.open.back().first;
      span.trace = local.open.back().second;
    } else {
      span.trace = span.id;
    }
    spans_.push_back(span);
  }
  local.open.emplace_back(span.id, span.trace);
  return span.id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t now = ns_between(origin_, Clock::now());
  ThreadSpans& local = thread_spans();
  if (!local.open.empty() && local.open.back().first == id) {
    local.open.pop_back();
  }
  MutexLock lock(mutex_);
  // Ids are dense and spans are appended in id order.
  spans_[static_cast<std::size_t>(id - 1)].end_ns = now;
}

std::vector<Tracer::Span> Tracer::spans() const {
  MutexLock lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations(const std::string& name,
                                     const std::string& prefix,
                                     bool self) const {
  MutexLock lock(mutex_);
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  if (self) {
    for (const Span& span : spans_) {
      if (span.parent != 0 && span.end_ns != 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
  }
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name != name || span.end_ns == 0 ||
        span.detail.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    out.push_back(static_cast<double>(span.end_ns - span.start_ns -
                                      (self ? child_ns[span.id] : 0)) /
                  1e6);
  }
  return out;
}

double Tracer::sum_of_medians(const std::string& name,
                              const std::string& prefix) const {
  std::map<std::string, std::vector<double>> by_detail;
  {
    MutexLock lock(mutex_);
    for (const Span& span : spans_) {
      if (span.name == name && span.end_ns != 0 &&
          span.detail.compare(0, prefix.size(), prefix) == 0) {
        by_detail[span.detail].push_back(span.ms());
      }
    }
  }
  double total = 0.0;
  for (auto& [detail, values] : by_detail) total += median(std::move(values));
  return total;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  out << std::fixed << std::setprecision(3);
  for (const Span& span : spans()) {
    if (span.end_ns == 0) continue;
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":" << Json(span.name).dump(0)
        << ",\"cat\":" << Json(layer_of(span.name)).dump(0)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << static_cast<double>(span.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ",\"args\":{\"span\":" << span.id << ",\"parent\":" << span.parent
        << ",\"trace\":" << span.trace
        << ",\"detail\":" << Json(span.detail).dump(0) << "}}";
  }
  out << "]}\n";
}

void StageSpans::on_stage_begin(const StageInfo& info) {
  static const std::unordered_map<std::string, std::string> kLayer = {
      {stage_names::kPartitioning, "partition.stage"},
      {stage_names::kMapping, "mapping.stage"},
      {stage_names::kScheduling, "schedule.stage"},
      {stage_names::kLowering, "backend.stage"}};
  const auto it = kLayer.find(info.stage);
  open_.push_back(Tracer::get().begin(
      it == kLayer.end() ? "core." + info.stage : it->second, detail));
}

void StageSpans::on_stage_end(const StageInfo& /*info*/) {
  if (open_.empty()) return;
  Tracer::get().end(open_.back());
  open_.pop_back();
}

std::map<std::string, double> print_self_time_table(const std::string& root) {
  const std::vector<Tracer::Span> spans = Tracer::get().spans();
  // Children's covered time per parent (children of one parent run
  // sequentially on the parent's thread, so their durations add up).
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  std::unordered_map<std::uint64_t, std::string> root_of_trace;
  for (const Tracer::Span& span : spans) {
    if (span.parent == 0) root_of_trace[span.trace] = span.name;
    if (span.parent != 0 && span.end_ns != 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self_ms;
  double total_ms = 0.0;
  double roots = 0.0;
  for (const Tracer::Span& span : spans) {
    if (span.end_ns == 0 || root_of_trace[span.trace] != root) continue;
    const double self =
        static_cast<double>(std::max<std::int64_t>(
            0, span.end_ns - span.start_ns - child_ns[span.id])) / 1e6;
    const std::string layer = span.parent == 0 ? "unattributed"
                                               : layer_of(span.name);
    if (span.parent == 0) roots += 1.0;
    self_ms[layer] += self;
    total_ms += self;
  }
  roots = std::max(roots, 1.0);
  std::cout << "\nper-layer self time per " << root << " span ("
            << static_cast<long long>(roots) << " spans)\n"
            << std::left << std::setw(14) << "layer" << std::right
            << std::setw(14) << "ms" << std::setw(10) << "share" << '\n';
  for (auto& [layer, ms] : self_ms) {
    std::cout << std::left << std::setw(14) << layer << std::right
              << std::setw(14) << std::setprecision(4) << std::fixed
              << ms / roots << std::setw(9) << std::setprecision(1)
              << 100.0 * ms / std::max(total_ms, 1e-9) << "%\n";
    ms /= roots;
  }
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
  return self_ms;
}

// --- report ----------------------------------------------------------------

void Report::op_failed(const std::string& why) {
  ++failed;
  if (failed <= 5) std::cout << "failed operation: " << why << '\n';
}

void Report::broken(const std::string& why) {
  correct = false;
  std::cout << "INCORRECT: " << why << '\n';
}

// --- compile keys --------------------------------------------------------------

std::string Key::label() const {
  return model + "@" + std::to_string(input) + "/" + to_string(mode) + "/p" +
         std::to_string(parallelism) + "/" + mapper + "/s" +
         std::to_string(seed);
}

CompileOptions Key::options() const {
  CompileOptions options;
  options.mode = mode;
  options.parallelism_degree = parallelism;
  options.mapper = mapper;
  options.ga.population = population;
  options.ga.generations = generations;
  options.seed = seed;
  return options;
}

serve::CompileRequest Key::request() const {
  serve::CompileRequest request;
  request.model = model;
  request.input_size = input;
  request.simulate = true;
  serve::ScenarioSpec spec;
  spec.label = label();
  spec.options = options();
  request.scenarios.push_back(std::move(spec));
  return request;
}

std::uint64_t wire_seed(std::uint64_t seed, std::uint64_t index) {
  return split_seed(seed, index) >> 11;
}

void check_result(const CompileResult& result, const SimReport& sim) {
  result.solution.validate();
  if (sim.makespan <= 0 || sim.mvm_ops <= 0) {
    throw std::runtime_error("simulation did not complete");
  }
}

std::string outcome_digest(const Json& compile, const Json& simulation) {
  Json stable = Json::object();
  for (const auto& [key, value] : compile.items()) {
    if (key != "stage_times") stable[key] = value;
  }
  return stable.dump(0) + simulation.dump(0);
}

std::string result_digest(const CompileResult& result, const SimReport& sim) {
  // One dump/parse round trip, exactly what a wire outcome went through.
  return outcome_digest(Json::parse(compile_result_to_json(result).dump(0)),
                        Json::parse(sim_report_to_json(sim).dump(0)));
}

std::pair<double, double> tier_counts(const Json& stats,
                                      const std::string& tier) {
  for (std::size_t i = 0; i < stats.at("cache").size(); ++i) {
    const Json& row = stats.at("cache").at(i);
    if (row.at("tier").as_string() == tier) {
      const auto hits = static_cast<double>(row.at("hits").as_int());
      return {hits, hits + static_cast<double>(row.at("misses").as_int())};
    }
  }
  return {0.0, 0.0};
}

serve::CompileRequest request_codec(const serve::CompileRequest& request,
                                    const std::string& detail) {
  ScopedSpan span("serve.request_codec", detail);
  return serve::request_from_json(
      Json::parse(serve::to_json(request).dump(-1)));
}

void reply_codec(const CompileResult& result, const SimReport& sim,
                 const std::string& detail) {
  ScopedSpan span("serve.reply_codec", detail);
  serve::OutcomeMessage outcome;
  outcome.index = 0;
  outcome.ok = true;
  outcome.compile = compile_result_to_json(result);
  outcome.simulation = sim_report_to_json(sim);
  serve::server_message_from_json(Json::parse(serve::to_json(outcome).dump(-1)));
  serve::server_message_from_json(
      Json::parse(serve::to_json(serve::DoneMessage{0, 1, 0, 0}).dump(-1)));
}

const char* mode_tag(PipelineMode mode) {
  return mode == PipelineMode::kHighThroughput ? "HT" : "LL";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
