#include "mapping/fitness.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
// pimcomp-layer-exempt: the fitness model reuses the scheduler's
// receptive-field geometry helpers (a data-only header, no control flow
// back into schedule/).
#include "schedule/receptive_field.hpp"

namespace pimcomp {

Picoseconds cycle_time(int live_ags, const FitnessParams& params) {
  PIMCOMP_ASSERT(live_ags >= 0, "negative AG count");
  if (live_ags == 0) return 0;
  const Picoseconds issue_bound = live_ags * params.issue_interval;
  return std::max(issue_bound, params.mvm_latency);
}

namespace {

/// Per-core cross-core accumulation penalties. A gene holding a *partial*
/// replica (ag_count not a multiple of ags-per-replica) belongs to an
/// accumulation group that spans cores: every operation cycle its partial
/// sums ship to the group owner (the first such core, matching
/// `MappingSolution::instantiate`), which folds them on its VFU. Member
/// cores pay injection bandwidth; the owner pays reception bandwidth plus
/// the VFU fold for every remote contributor — that concentration is what
/// makes scattered mappings slow in the simulator, so the fitness must see
/// it too.
std::vector<double> accumulation_penalties(const MappingSolution& solution,
                                           const FitnessParams& params) {
  std::vector<double> penalty(static_cast<std::size_t>(solution.core_count()),
                              0.0);
  const Workload& workload = solution.workload();
  for (const NodePartition& p : workload.partitions()) {
    const int per_replica = p.ags_per_replica();
    if (per_replica <= 1) continue;  // single-AG replicas never accumulate
    const double elements =
        static_cast<double>(solution.cycles(p.node)) * p.cols_per_chunk;
    const double bytes = elements * params.activation_bytes;
    const double comm_ps = bytes * 1000.0 / params.local_memory_gbps;
    const double fold_ps = elements / params.vfu_ops_per_ns * 1000.0;

    int owner = -1;
    for (int core : solution.cores_of(p.node)) {
      for (const Gene& g : solution.genes(core)) {
        if (g.node != p.node || g.ag_count % per_replica == 0) continue;
        if (owner < 0) {
          owner = core;  // first misaligned gene hosts the stitched groups
        } else {
          penalty[static_cast<std::size_t>(core)] += comm_ps;
          penalty[static_cast<std::size_t>(owner)] += comm_ps + fold_ps;
        }
      }
    }
  }
  return penalty;
}

}  // namespace

std::vector<double> ht_core_times(const MappingSolution& solution,
                                  const FitnessParams& params) {
  std::vector<double> times(static_cast<std::size_t>(solution.core_count()),
                            0.0);
  const std::vector<double> penalties =
      accumulation_penalties(solution, params);
  std::vector<std::pair<int, int>> staircase;  // (cycles, ag_count)
  for (int core = 0; core < solution.core_count(); ++core) {
    staircase.clear();
    int live = 0;
    const double comm_penalty = penalties[static_cast<std::size_t>(core)];
    for (const Gene& gene : solution.genes(core)) {
      staircase.emplace_back(solution.cycles(gene.node), gene.ag_count);
      live += gene.ag_count;
    }
    std::sort(staircase.begin(), staircase.end());
    // Walk the cycle-count staircase (paper Fig 5): while `live` AGs remain
    // active the core spends f(live) per operation cycle; nodes with fewer
    // cycles retire earlier.
    double time = 0.0;
    int prev_cycles = 0;
    for (const auto& [cycles, ag_count] : staircase) {
      if (cycles > prev_cycles) {
        time += static_cast<double>(cycle_time(live, params)) *
                (cycles - prev_cycles);
        prev_cycles = cycles;
      }
      live -= ag_count;
    }
    times[static_cast<std::size_t>(core)] = time + comm_penalty;
  }
  return times;
}

double ht_fitness(const MappingSolution& solution,
                  const FitnessParams& params) {
  const std::vector<double> times = ht_core_times(solution, params);
  double worst = 0.0;
  for (double t : times) worst = std::max(worst, t);
  return worst;
}

LLFitnessContext::LLFitnessContext(const Workload& workload)
    : workload_(&workload) {
  edges_.reserve(static_cast<std::size_t>(workload.partition_count()));
  for (const NodePartition& p : workload.partitions()) {
    std::vector<Edge> edges;
    for (const ProviderRequirement& req :
         trace_requirements(workload, p.node, 1, 1)) {
      if (req.provider < 0) {
        // Inference input: fully available at t = 0.
        edges.push_back({-1, 0.0});
        continue;
      }
      const NodePartition& provider =
          workload.partitions()[static_cast<std::size_t>(req.provider)];
      edges.push_back(
          {req.provider,
           req.pos.fraction(provider.out_height, provider.out_width)});
    }
    edges_.push_back(std::move(edges));
  }
  consumers_.resize(static_cast<std::size_t>(workload.partition_count()));
  for (int consumer = 0; consumer < workload.partition_count(); ++consumer) {
    for (const Edge& e : edges_[static_cast<std::size_t>(consumer)]) {
      if (e.provider >= 0) {
        consumers_[static_cast<std::size_t>(e.provider)].push_back(consumer);
      }
    }
  }
}

std::vector<double> LLFitnessContext::finish_times(
    const MappingSolution& solution, const FitnessParams& params) const {
  const int count = workload_->partition_count();
  std::vector<double> finish(static_cast<std::size_t>(count), 0.0);
  std::vector<double> duration(static_cast<std::size_t>(count), 0.0);

  const std::vector<double> penalties =
      accumulation_penalties(solution, params);
  for (int i = 0; i < count; ++i) {
    const NodePartition& p =
        workload_->partitions()[static_cast<std::size_t>(i)];
    // Uninterrupted execution time of the node: every replica processes
    // ceil(windows/R) windows; within one core its AGs share the issue
    // bandwidth, so the per-window interval is f(AGs-of-this-node-in-core).
    // Cores burdened by cross-core accumulation stretch the node they host.
    int max_ags_one_core = 0;
    double comm_penalty = 0.0;
    for (int core : solution.cores_of(p.node)) {
      for (const Gene& g : solution.genes(core)) {
        if (g.node == p.node) {
          max_ags_one_core = std::max(max_ags_one_core, g.ag_count);
          comm_penalty = std::max(
              comm_penalty, penalties[static_cast<std::size_t>(core)]);
        }
      }
    }
    PIMCOMP_ASSERT(max_ags_one_core > 0, "node with no mapped AGs");

    // Row-forwarding fan-out: every produced row ships from its owner core
    // to every core hosting AGs of a consumer node, so a producer's owner
    // pays injection bandwidth proportional to the consumers' core spread.
    // This is what makes blanket over-replication unattractive in LL mode.
    int subscriber_cores = 0;
    for (int consumer : consumers_[static_cast<std::size_t>(i)]) {
      const NodePartition& c =
          workload_->partitions()[static_cast<std::size_t>(consumer)];
      subscriber_cores +=
          static_cast<int>(solution.cores_of(c.node).size());
    }
    const double fanout_bytes = static_cast<double>(solution.cycles(p.node)) *
                                p.cols_per_chunk * params.activation_bytes *
                                subscriber_cores;
    const double fanout_ps =
        fanout_bytes * 1000.0 / params.local_memory_gbps;

    duration[static_cast<std::size_t>(i)] =
        static_cast<double>(solution.cycles(p.node)) *
            static_cast<double>(cycle_time(max_ags_one_core, params)) +
        comm_penalty + fanout_ps;
  }

  // Partitions are in graph id order, which is topological — the same order
  // the LL scheduler emits per-core streams in.
  for (int i = 0; i < count; ++i) {
    double start = 0.0;
    double provider_finish_max = 0.0;
    for (const Edge& e : edges_[static_cast<std::size_t>(i)]) {
      if (e.provider < 0) continue;
      PIMCOMP_ASSERT(e.provider < i, "LL edges must respect topology");
      const double provider_finish =
          finish[static_cast<std::size_t>(e.provider)];
      const double provider_duration =
          duration[static_cast<std::size_t>(e.provider)];
      // The consumer may start once W of the provider's stream exists; the
      // provider produced uniformly over its last `duration` window.
      start = std::max(start, provider_finish - (1.0 - e.waiting_fraction) *
                                                    provider_duration);
      provider_finish_max = std::max(provider_finish_max, provider_finish);
    }
    // The node runs uninterrupted once started, but cannot finish before
    // its last input arrives (paper's pairwise composition rule).
    finish[static_cast<std::size_t>(i)] =
        std::max(start + duration[static_cast<std::size_t>(i)],
                 provider_finish_max);
  }
  return finish;
}

double LLFitnessContext::evaluate(const MappingSolution& solution,
                                  const FitnessParams& params) const {
  const std::vector<double> finish = finish_times(solution, params);
  double latest = 0.0;
  for (double f : finish) latest = std::max(latest, f);
  return latest;
}

// ---------------------------------------------------------------------------
// PopulationEvaluator.
// ---------------------------------------------------------------------------

PopulationEvaluator::PopulationEvaluator(const Workload& workload,
                                         const FitnessParams& params,
                                         PipelineMode mode,
                                         const LLFitnessContext& ll_context,
                                         int slots, int max_nodes_per_core)
    : workload_(&workload),
      params_(params),
      mode_(mode),
      ll_(&ll_context),
      slots_(slots),
      cores_(workload.hardware().core_count),
      parts_(workload.partition_count()),
      core_slots_(std::min(max_nodes_per_core, workload.partition_count())),
      words_((workload.hardware().core_count + 63) / 64) {
  PIMCOMP_CHECK(slots >= 1, "PopulationEvaluator needs at least one slot");
  PIMCOMP_CHECK(max_nodes_per_core >= 1,
                "max_nodes_per_core must be positive");
  const auto s = static_cast<std::size_t>(slots_);
  cycles_.resize(s * static_cast<std::size_t>(parts_));
  penalty_.resize(s * static_cast<std::size_t>(cores_));
  if (mode_ == PipelineMode::kHighThroughput) {
    dirty_.resize(s * static_cast<std::size_t>(words_));
    staircase_.resize(s * static_cast<std::size_t>(core_slots_));
  } else {
    finish_.resize(s * static_cast<std::size_t>(parts_));
    duration_.resize(s * static_cast<std::size_t>(parts_));
  }
}

namespace {

/// Slot `slot`'s `width`-wide slice of a per-slot scratch vector.
template <typename T>
std::span<T> slot_slice(std::vector<T>& stripe, int slot, int width) {
  return std::span<T>(stripe).subspan(
      static_cast<std::size_t>(slot) * static_cast<std::size_t>(width),
      static_cast<std::size_t>(width));
}

}  // namespace

void PopulationEvaluator::cycles_and_penalties(
    const MappingSolution& solution, std::span<int> cycles,
    std::span<double> penalty) const {
  const std::span<const int> totals = solution.ag_totals();
  const std::vector<NodePartition>& parts = workload_->partitions();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    // Totals -> replication -> cycles, exactly as MappingSolution::cycles().
    const int replication = totals[i] / parts[i].ags_per_replica();
    PIMCOMP_ASSERT(replication >= 1, "node without a full replica");
    cycles[i] = ceil_div(parts[i].windows, replication);
  }

  // Cross-core accumulation penalties — mirrors accumulation_penalties():
  // partitions ascending, host cores ascending, identical arithmetic.
  std::fill(penalty.begin(), penalty.end(), 0.0);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const NodePartition& p = parts[i];
    const int per_replica = p.ags_per_replica();
    if (per_replica <= 1) continue;
    const double elements = static_cast<double>(cycles[i]) * p.cols_per_chunk;
    const double bytes = elements * params_.activation_bytes;
    const double comm_ps = bytes * 1000.0 / params_.local_memory_gbps;
    const double fold_ps = elements / params_.vfu_ops_per_ns * 1000.0;

    int owner = -1;
    for_each_bit(solution.hosts(static_cast<int>(i)), [&](int core) {
      if (solution.ags_on(core, p.node) % per_replica == 0) return;
      if (owner < 0) {
        owner = core;
      } else {
        penalty[static_cast<std::size_t>(core)] += comm_ps;
        penalty[static_cast<std::size_t>(owner)] += comm_ps + fold_ps;
      }
    });
  }
}

double PopulationEvaluator::staircase_time(
    const MappingSolution& solution, int core, std::span<const int> cycles,
    std::span<std::pair<int, int>> staircase) const {
  // Mirrors one core of ht_core_times().
  std::size_t len = 0;
  int live = 0;
  for (const Gene& g : solution.genes(core)) {
    const auto part =
        static_cast<std::size_t>(workload_->partition_index(g.node));
    staircase[len++] = {cycles[part], g.ag_count};
    live += g.ag_count;
  }
  const std::span<std::pair<int, int>> steps = staircase.first(len);
  std::sort(steps.begin(), steps.end());
  double time = 0.0;
  int prev_cycles = 0;
  for (const auto& [node_cycles, ag_count] : steps) {
    if (node_cycles > prev_cycles) {
      time += static_cast<double>(cycle_time(live, params_)) *
              (node_cycles - prev_cycles);
      prev_cycles = node_cycles;
    }
    live -= ag_count;
  }
  return time;
}

double PopulationEvaluator::evaluate(int slot, MappingSolution& solution,
                                     ScoreCache& cache) {
  PIMCOMP_ASSERT(slot >= 0 && slot < slots_, "evaluator slot out of range");
  PIMCOMP_ASSERT(solution.core_count() == cores_ &&
                     solution.workload().partition_count() == parts_ &&
                     std::min(solution.max_nodes_per_core(), parts_) <=
                         core_slots_,
                 "solution shape does not match the evaluator");
  const std::span<int> cycles = slot_slice(cycles_, slot, parts_);
  const std::span<double> penalty = slot_slice(penalty_, slot, cores_);
  cycles_and_penalties(solution, cycles, penalty);
  const auto cores = static_cast<std::size_t>(cores_);

  if (mode_ == PipelineMode::kHighThroughput) {
    const std::span<std::pair<int, int>> staircase =
        slot_slice(staircase_, slot, core_slots_);
    if (cache.stair.size() != cores) {
      cache.stair.resize(cores);
      for (int core = 0; core < cores_; ++core) {
        cache.stair[static_cast<std::size_t>(core)] =
            staircase_time(solution, core, cycles, staircase);
      }
    } else {
      // Dirty = touched cores + hosts of every partition whose cycles moved.
      const std::span<std::uint64_t> dirty = slot_slice(dirty_, slot, words_);
      const std::span<const std::uint64_t> touched = solution.touched();
      std::copy(touched.begin(), touched.end(), dirty.begin());
      for (std::size_t i = 0; i < cycles.size(); ++i) {
        if (cycles[i] == cache.cycles[i]) continue;
        const std::span<const std::uint64_t> hosts =
            solution.hosts(static_cast<int>(i));
        for (std::size_t w = 0; w < dirty.size(); ++w) dirty[w] |= hosts[w];
      }
      for_each_bit(dirty, [&](int core) {
        cache.stair[static_cast<std::size_t>(core)] =
            staircase_time(solution, core, cycles, staircase);
      });
    }
    cache.cycles.assign(cycles.begin(), cycles.end());
    solution.clear_touched();
    // The max that ht_fitness takes over ht_core_times().
    double worst = 0.0;
    for (std::size_t core = 0; core < cores; ++core) {
      worst = std::max(worst, cache.stair[core] + penalty[core]);
    }
    return worst;
  }
  solution.clear_touched();

  // LL mode — mirrors LLFitnessContext::finish_times()/evaluate().
  const std::span<double> finish = slot_slice(finish_, slot, parts_);
  const std::span<double> duration = slot_slice(duration_, slot, parts_);
  const std::vector<NodePartition>& parts = workload_->partitions();
  const std::vector<std::vector<int>>& consumers = ll_->consumers();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const NodePartition& p = parts[i];
    int max_ags_one_core = 0;
    double comm_penalty = 0.0;
    for_each_bit(solution.hosts(static_cast<int>(i)), [&](int core) {
      max_ags_one_core =
          std::max(max_ags_one_core, solution.ags_on(core, p.node));
      comm_penalty =
          std::max(comm_penalty, penalty[static_cast<std::size_t>(core)]);
    });
    PIMCOMP_ASSERT(max_ags_one_core > 0, "node with no mapped AGs");

    int subscriber_cores = 0;
    for (int consumer : consumers[i]) {
      for (std::uint64_t word : solution.hosts(consumer)) {
        subscriber_cores += std::popcount(word);
      }
    }
    const double fanout_bytes = static_cast<double>(cycles[i]) *
                                p.cols_per_chunk * params_.activation_bytes *
                                subscriber_cores;
    const double fanout_ps =
        fanout_bytes * 1000.0 / params_.local_memory_gbps;

    duration[i] =
        static_cast<double>(cycles[i]) *
            static_cast<double>(cycle_time(max_ags_one_core, params_)) +
        comm_penalty + fanout_ps;
  }
  const std::vector<std::vector<LLFitnessContext::Edge>>& edges = ll_->edges();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    double start = 0.0;
    double provider_finish_max = 0.0;
    for (const LLFitnessContext::Edge& e : edges[i]) {
      if (e.provider < 0) continue;
      const auto provider = static_cast<std::size_t>(e.provider);
      start = std::max(start, finish[provider] - (1.0 - e.waiting_fraction) *
                                                     duration[provider]);
      provider_finish_max = std::max(provider_finish_max, finish[provider]);
    }
    finish[i] = std::max(start + duration[i], provider_finish_max);
  }
  double latest = 0.0;
  for (const double f : finish) latest = std::max(latest, f);
  return latest;
}

}  // namespace pimcomp
