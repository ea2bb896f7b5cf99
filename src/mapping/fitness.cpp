#include "mapping/fitness.hpp"

#include <algorithm>
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
      max_nodes_per_core_(max_nodes_per_core),
      core_slots_(std::min(max_nodes_per_core, workload.partition_count())),
      genes_stride_(workload.hardware().core_count * core_slots_) {
  PIMCOMP_CHECK(slots >= 1, "PopulationEvaluator needs at least one slot");
  PIMCOMP_CHECK(max_nodes_per_core >= 1,
                "max_nodes_per_core must be positive");
  const auto s = static_cast<std::size_t>(slots_);
  gene_part_.resize(s * static_cast<std::size_t>(genes_stride_));
  gene_ags_.resize(s * static_cast<std::size_t>(genes_stride_));
  core_off_.resize(s * static_cast<std::size_t>(cores_ + 1));
  node_cycles_.resize(s * static_cast<std::size_t>(parts_));
  node_off_.resize(s * static_cast<std::size_t>(parts_ + 1));
  node_core_.resize(s * static_cast<std::size_t>(genes_stride_));
  node_ags_.resize(s * static_cast<std::size_t>(genes_stride_));
  node_cursor_.resize(s * static_cast<std::size_t>(parts_));
  penalty_.resize(s * static_cast<std::size_t>(cores_));
  if (mode_ == PipelineMode::kHighThroughput) {
    staircase_.resize(s * static_cast<std::size_t>(core_slots_));
  } else {
    finish_.resize(s * static_cast<std::size_t>(parts_));
    duration_.resize(s * static_cast<std::size_t>(parts_));
  }
}

void PopulationEvaluator::load(int slot, const MappingSolution& solution) {
  PIMCOMP_ASSERT(slot >= 0 && slot < slots_, "evaluator slot out of range");
  PIMCOMP_ASSERT(solution.core_count() == cores_ &&
                     solution.max_nodes_per_core() <= max_nodes_per_core_,
                 "solution shape does not match the evaluator");
  const Workload& workload = *workload_;
  const auto base = static_cast<std::size_t>(slot);
  int* gene_part = &gene_part_[base * static_cast<std::size_t>(genes_stride_)];
  int* gene_ags = &gene_ags_[base * static_cast<std::size_t>(genes_stride_)];
  int* core_off = &core_off_[base * static_cast<std::size_t>(cores_ + 1)];
  int* node_cycles = &node_cycles_[base * static_cast<std::size_t>(parts_)];
  int* node_off = &node_off_[base * static_cast<std::size_t>(parts_ + 1)];
  int* node_core = &node_core_[base * static_cast<std::size_t>(genes_stride_)];
  int* node_ags = &node_ags_[base * static_cast<std::size_t>(genes_stride_)];
  int* cursor = &node_cursor_[base * static_cast<std::size_t>(parts_)];

  // Gather the genes core-major and total each node's AGs on the way.
  std::fill_n(cursor, parts_, 0);  // doubles as the per-node AG total here
  int pos = 0;
  for (int core = 0; core < cores_; ++core) {
    core_off[core] = pos;
    for (const Gene& g : solution.genes(core)) {
      const int part = workload.partition_index(g.node);
      gene_part[pos] = part;
      gene_ags[pos] = g.ag_count;
      cursor[part] += g.ag_count;
      ++pos;
    }
  }
  core_off[cores_] = pos;

  // Totals -> replication -> cycles, exactly as MappingSolution::cycles().
  for (int i = 0; i < parts_; ++i) {
    const NodePartition& p =
        workload.partitions()[static_cast<std::size_t>(i)];
    const int replication = cursor[i] / p.ags_per_replica();
    PIMCOMP_ASSERT(replication >= 1, "node without a full replica");
    node_cycles[i] = ceil_div(p.windows, replication);
  }

  // Per-node host-core CSR, rows core-ascending (the gather order above).
  std::fill_n(node_off, parts_ + 1, 0);
  for (int g = 0; g < pos; ++g) ++node_off[gene_part[g] + 1];
  for (int i = 0; i < parts_; ++i) node_off[i + 1] += node_off[i];
  std::copy_n(node_off, parts_, cursor);
  for (int core = 0; core < cores_; ++core) {
    for (int g = core_off[core]; g < core_off[core + 1]; ++g) {
      const int at = cursor[gene_part[g]]++;
      node_core[at] = core;
      node_ags[at] = gene_ags[g];
    }
  }
}

double PopulationEvaluator::evaluate(int slot) {
  PIMCOMP_ASSERT(slot >= 0 && slot < slots_, "evaluator slot out of range");
  const Workload& workload = *workload_;
  const auto base = static_cast<std::size_t>(slot);
  const int* gene_part =
      &gene_part_[base * static_cast<std::size_t>(genes_stride_)];
  const int* gene_ags =
      &gene_ags_[base * static_cast<std::size_t>(genes_stride_)];
  const int* core_off = &core_off_[base * static_cast<std::size_t>(cores_ + 1)];
  const int* node_cycles =
      &node_cycles_[base * static_cast<std::size_t>(parts_)];
  const int* node_off = &node_off_[base * static_cast<std::size_t>(parts_ + 1)];
  const int* node_core =
      &node_core_[base * static_cast<std::size_t>(genes_stride_)];
  const int* node_ags =
      &node_ags_[base * static_cast<std::size_t>(genes_stride_)];
  double* penalty = &penalty_[base * static_cast<std::size_t>(cores_)];

  // Cross-core accumulation penalties — mirrors accumulation_penalties():
  // partitions ascending, host cores ascending, identical arithmetic.
  std::fill_n(penalty, cores_, 0.0);
  for (int i = 0; i < parts_; ++i) {
    const NodePartition& p =
        workload.partitions()[static_cast<std::size_t>(i)];
    const int per_replica = p.ags_per_replica();
    if (per_replica <= 1) continue;
    const double elements =
        static_cast<double>(node_cycles[i]) * p.cols_per_chunk;
    const double bytes = elements * params_.activation_bytes;
    const double comm_ps = bytes * 1000.0 / params_.local_memory_gbps;
    const double fold_ps = elements / params_.vfu_ops_per_ns * 1000.0;

    int owner = -1;
    for (int e = node_off[i]; e < node_off[i + 1]; ++e) {
      if (node_ags[e] % per_replica == 0) continue;
      if (owner < 0) {
        owner = node_core[e];
      } else {
        penalty[node_core[e]] += comm_ps;
        penalty[owner] += comm_ps + fold_ps;
      }
    }
  }

  if (mode_ == PipelineMode::kHighThroughput) {
    // Fig 5 staircase per core — mirrors ht_core_times(); the max that
    // ht_fitness takes afterwards folds into the loop.
    std::pair<int, int>* staircase =
        &staircase_[base * static_cast<std::size_t>(core_slots_)];
    double worst = 0.0;
    for (int core = 0; core < cores_; ++core) {
      int len = 0;
      int live = 0;
      for (int g = core_off[core]; g < core_off[core + 1]; ++g) {
        staircase[len++] = {node_cycles[gene_part[g]], gene_ags[g]};
        live += gene_ags[g];
      }
      std::sort(staircase, staircase + len);
      double time = 0.0;
      int prev_cycles = 0;
      for (int k = 0; k < len; ++k) {
        const auto& [cycles, ag_count] = staircase[k];
        if (cycles > prev_cycles) {
          time += static_cast<double>(cycle_time(live, params_)) *
                  (cycles - prev_cycles);
          prev_cycles = cycles;
        }
        live -= ag_count;
      }
      worst = std::max(worst, time + penalty[core]);
    }
    return worst;
  }

  // LL mode — mirrors LLFitnessContext::finish_times()/evaluate().
  double* finish = &finish_[base * static_cast<std::size_t>(parts_)];
  double* duration = &duration_[base * static_cast<std::size_t>(parts_)];
  const std::vector<std::vector<int>>& consumers = ll_->consumers();
  for (int i = 0; i < parts_; ++i) {
    const NodePartition& p =
        workload.partitions()[static_cast<std::size_t>(i)];
    int max_ags_one_core = 0;
    double comm_penalty = 0.0;
    for (int e = node_off[i]; e < node_off[i + 1]; ++e) {
      max_ags_one_core = std::max(max_ags_one_core, node_ags[e]);
      comm_penalty = std::max(comm_penalty, penalty[node_core[e]]);
    }
    PIMCOMP_ASSERT(max_ags_one_core > 0, "node with no mapped AGs");

    int subscriber_cores = 0;
    for (int consumer : consumers[static_cast<std::size_t>(i)]) {
      subscriber_cores += node_off[consumer + 1] - node_off[consumer];
    }
    const double fanout_bytes = static_cast<double>(node_cycles[i]) *
                                p.cols_per_chunk * params_.activation_bytes *
                                subscriber_cores;
    const double fanout_ps =
        fanout_bytes * 1000.0 / params_.local_memory_gbps;

    duration[i] =
        static_cast<double>(node_cycles[i]) *
            static_cast<double>(cycle_time(max_ags_one_core, params_)) +
        comm_penalty + fanout_ps;
  }
  const std::vector<std::vector<LLFitnessContext::Edge>>& edges = ll_->edges();
  for (int i = 0; i < parts_; ++i) {
    double start = 0.0;
    double provider_finish_max = 0.0;
    for (const LLFitnessContext::Edge& e :
         edges[static_cast<std::size_t>(i)]) {
      if (e.provider < 0) continue;
      const double provider_finish = finish[e.provider];
      const double provider_duration = duration[e.provider];
      start = std::max(start, provider_finish - (1.0 - e.waiting_fraction) *
                                                    provider_duration);
      provider_finish_max = std::max(provider_finish_max, provider_finish);
    }
    finish[i] = std::max(start + duration[i], provider_finish_max);
  }
  double latest = 0.0;
  for (int i = 0; i < parts_; ++i) latest = std::max(latest, finish[i]);
  return latest;
}

}  // namespace pimcomp
