#include "mapping/genetic_mapper.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
// pimcomp-layer-exempt: self-registration into the mapper registry — the
// plugin seam every strategy TU uses, not a dependency on core logic.
#include "core/pipeline.hpp"
#include "mapping/fitness.hpp"
#include "mapping/puma_mapper.hpp"

namespace pimcomp {

std::string to_string(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kHighThroughput: return "high-throughput";
    case PipelineMode::kLowLatency: return "low-latency";
  }
  return "unknown";
}

namespace {

/// Vectors the breed loop would otherwise allocate per call, owned by one
/// island (or one initialization) and reused across calls. Each helper
/// clears what it uses; none of them nest on the same vector.
struct Scratch {
  std::vector<int> cores;         ///< a node's host cores
  std::vector<int> placed_cores;  ///< place_replica's scatter rollback log
  std::vector<int> misaligned;    ///< mutate_merge's remainder hosts
};

/// Finds a core that can accept `ag_count` AGs of `node`, trying a few random
/// probes before falling back to a full scan from a random offset. Returns
/// -1 when no core fits.
int find_feasible_core(const MappingSolution& s, Rng& rng, NodeId node,
                       int ag_count, int exclude = -1) {
  const int cores = s.core_count();
  for (int probe = 0; probe < 8; ++probe) {
    const int c = rng.uniform_int(cores);
    if (c != exclude && s.can_add(c, node, ag_count)) return c;
  }
  const int offset = rng.uniform_int(cores);
  for (int i = 0; i < cores; ++i) {
    const int c = (offset + i) % cores;
    if (c != exclude && s.can_add(c, node, ag_count)) return c;
  }
  return -1;
}

/// Places one full replica (ags_per_replica AGs) of `node`, preferring a
/// single core so that intra-replica accumulation stays local. With
/// `prefer_locality` (LL mode) cores already hosting the node are tried
/// first, keeping the node's host-core set small — every extra host core
/// multiplies the row-forwarding fan-out its providers pay. Returns false
/// (leaving the solution unchanged) when placement is impossible.
bool place_replica(MappingSolution& s, Rng& rng, Scratch& scratch,
                   const NodePartition& p, bool prefer_locality = false) {
  const int ags = p.ags_per_replica();
  if (prefer_locality) {
    s.cores_of(p.node, scratch.cores);
    for (int core : scratch.cores) {
      if (s.can_add(core, p.node, ags)) {
        s.add(core, p.node, ags);
        return true;
      }
    }
  }
  const int whole_core = find_feasible_core(s, rng, p.node, ags);
  if (whole_core >= 0) {
    s.add(whole_core, p.node, ags);
    return true;
  }
  // Scatter AG by AG; roll back on failure.
  std::vector<int>& placed_cores = scratch.placed_cores;
  placed_cores.clear();
  for (int i = 0; i < ags; ++i) {
    const int c = find_feasible_core(s, rng, p.node, 1);
    if (c < 0) {
      for (int undo : placed_cores) s.remove(undo, p.node, 1);
      return false;
    }
    s.add(c, p.node, 1);
    placed_cores.push_back(c);
  }
  return true;
}

/// Removes one full replica's worth of AGs from random cores holding the
/// node. The caller guarantees replication >= 2.
void remove_replica(MappingSolution& s, Rng& rng, Scratch& scratch,
                    const NodePartition& p) {
  int remaining = p.ags_per_replica();
  std::vector<int>& cores = scratch.cores;
  s.cores_of(p.node, cores);
  rng.shuffle(cores);
  for (int c : cores) {
    if (remaining == 0) break;
    remaining -= s.remove(c, p.node, remaining);
  }
  PIMCOMP_ASSERT(remaining == 0, "replica removal fell short");
}

/// Per-node replication targets for one random individual. Half the
/// population draws window-proportional targets (pipeline-shaped, with
/// multiplicative noise), the other half draws unstructured random targets;
/// the mix keeps the initial population diverse across very different
/// replication scales (a node with thousands of sliding windows may deserve
/// a hundred replicas, which single-step mutations alone would take too
/// long to reach).
std::vector<int> replication_targets(const Workload& workload, Rng& rng,
                                     double target_fill) {
  const int count = workload.partition_count();
  std::vector<int> targets(static_cast<std::size_t>(count), 1);
  const auto budget = static_cast<std::int64_t>(
      target_fill * static_cast<double>(workload.total_xbars_available()));

  if (rng.bernoulli(0.5)) {
    // Window-proportional: find the per-replica cycle target C such that
    // R_i = ceil(windows_i / C) fits the budget, then perturb.
    int max_windows = 1;
    for (const NodePartition& p : workload.partitions()) {
      max_windows = std::max(max_windows, p.windows);
    }
    auto xbars_needed = [&](int cycle_target) {
      std::int64_t total = 0;
      for (const NodePartition& p : workload.partitions()) {
        const int replicas =
            std::min(p.windows, (p.windows + cycle_target - 1) / cycle_target);
        total += static_cast<std::int64_t>(replicas) * p.xbars_per_replica();
      }
      return total;
    };
    int lo = 1, hi = max_windows;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (xbars_needed(mid) <= budget) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    for (int i = 0; i < count; ++i) {
      const NodePartition& p =
          workload.partitions()[static_cast<std::size_t>(i)];
      const double noise = 0.5 + rng.uniform01();
      const int base = (p.windows + lo - 1) / lo;
      targets[static_cast<std::size_t>(i)] = std::max(
          1, std::min(p.windows,
                      static_cast<int>(static_cast<double>(base) * noise)));
    }
  } else {
    // Unstructured: heavy-tailed random replication per node.
    for (int i = 0; i < count; ++i) {
      const NodePartition& p =
          workload.partitions()[static_cast<std::size_t>(i)];
      const double u = rng.uniform01();
      targets[static_cast<std::size_t>(i)] = std::max(
          1, static_cast<int>(u * u * p.windows));
    }
  }
  return targets;
}

/// Builds one random valid individual: one replica of every node first
/// (largest first so big layers are not stranded by fragmentation), then
/// growth toward random replication targets until the utilization budget or
/// placement failure.
MappingSolution random_individual(const Workload& workload,
                                  const MapperOptions& options, Rng& rng,
                                  Scratch& scratch, double target_fill) {
  // LL mode prefers tight host-core sets (row-forwarding fan-out); HT mode
  // benefits from spreading AGs to parallelize MVM issue.
  const bool prefer_locality = options.mode == PipelineMode::kLowLatency;
  MappingSolution s(workload, options.max_nodes_per_core);

  std::vector<const NodePartition*> order;
  order.reserve(static_cast<std::size_t>(workload.partition_count()));
  for (const NodePartition& p : workload.partitions()) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const NodePartition* a, const NodePartition* b) {
              return a->xbars_per_replica() > b->xbars_per_replica();
            });
  for (const NodePartition* p : order) {
    if (!place_replica(s, rng, scratch, *p, prefer_locality)) {
      throw CapacityError(
          "cannot place one replica of every node; raise core_count or "
          "max_nodes_per_core (node " +
          std::to_string(p->node) + " was stranded)");
    }
  }

  const std::vector<int> targets =
      replication_targets(workload, rng, target_fill);
  const auto budget = static_cast<std::int64_t>(
      target_fill * static_cast<double>(workload.total_xbars_available()));
  std::vector<const NodePartition*> growable = order;
  while (!growable.empty() && s.total_xbars_used() < budget) {
    const int pick = rng.pick_index(growable);
    const NodePartition* p = growable[static_cast<std::size_t>(pick)];
    const int target =
        targets[static_cast<std::size_t>(workload.partition_index(p->node))];
    if (s.replication(p->node) >= std::min(target, p->windows) ||
        !place_replica(s, rng, scratch, *p, prefer_locality)) {
      growable.erase(growable.begin() + pick);
    }
  }
  return s;
}

/// Mutation I: grow a random node's replication. The step size scales with
/// the current replication (geometric moves) so heavily-windowed nodes can
/// reach their useful replication range within a GA run.
bool mutate_grow(MappingSolution& s, Rng& rng, Scratch& scratch,
                 const Workload& workload, bool prefer_locality) {
  const int pick = rng.uniform_int(workload.partition_count());
  const NodePartition& p =
      workload.partitions()[static_cast<std::size_t>(pick)];
  const int current = s.replication(p.node);
  if (current >= p.windows) return false;
  const int step = 1 + rng.uniform_int(std::max(1, current / 2));
  bool grew = false;
  for (int i = 0; i < step && s.replication(p.node) < p.windows; ++i) {
    if (!place_replica(s, rng, scratch, p, prefer_locality)) break;
    grew = true;
  }
  return grew;
}

/// Mutation II: shrink a random node's replication (geometric step, never
/// below one replica).
bool mutate_shrink(MappingSolution& s, Rng& rng, Scratch& scratch,
                   const Workload& workload) {
  const int pick = rng.uniform_int(workload.partition_count());
  const NodePartition& p =
      workload.partitions()[static_cast<std::size_t>(pick)];
  const int current = s.replication(p.node);
  if (current < 2) return false;
  const int step = 1 + rng.uniform_int(std::max(1, (current - 1) / 2));
  for (int i = 0; i < step && s.replication(p.node) >= 2; ++i) {
    remove_replica(s, rng, scratch, p);
  }
  return true;
}

/// Mutation III: spread part of a random gene to other cores.
bool mutate_spread(MappingSolution& s, Rng& rng) {
  const int core = rng.uniform_int(s.core_count());
  const std::span<const Gene> genes = s.genes(core);
  if (genes.empty()) return false;
  const Gene gene = genes[static_cast<std::size_t>(rng.pick_index(genes))];
  if (gene.ag_count < 2) return false;
  const int to_move = rng.uniform_range(1, gene.ag_count - 1);
  int moved = 0;
  for (int i = 0; i < to_move; ++i) {
    const int dst = find_feasible_core(s, rng, gene.node, 1, core);
    if (dst < 0) break;
    s.remove(core, gene.node, 1);
    s.add(dst, gene.node, 1);
    ++moved;
  }
  return moved > 0;
}

/// Mutation IV: merge a gene into a same-node gene on another core. Half of
/// the time the merge targets *partial-replica* genes (counts misaligned to
/// ags-per-replica), pulling a remainder onto another remainder's core so
/// the stitched accumulation group becomes core-local — the move that
/// directly removes cross-core partial-sum traffic.
bool mutate_merge(MappingSolution& s, Rng& rng, Scratch& scratch,
                  const Workload& workload) {
  const int pick = rng.uniform_int(workload.partition_count());
  const NodePartition& p =
      workload.partitions()[static_cast<std::size_t>(pick)];
  std::vector<int>& cores = scratch.cores;
  s.cores_of(p.node, cores);
  if (cores.size() < 2) return false;

  const int per_replica = p.ags_per_replica();
  auto count_on = [&](int core) {
    for (const Gene& g : s.genes(core)) {
      if (g.node == p.node) return g.ag_count;
    }
    return 0;
  };

  int src = -1;
  int dst = -1;
  if (per_replica > 1 && rng.bernoulli(0.5)) {
    // Alignment merge: move one remainder onto another remainder's core.
    std::vector<int>& misaligned = scratch.misaligned;
    misaligned.clear();
    for (int core : cores) {
      if (count_on(core) % per_replica != 0) misaligned.push_back(core);
    }
    if (misaligned.size() >= 2) {
      rng.shuffle(misaligned);
      src = misaligned[0];
      dst = misaligned[1];
    }
  }
  if (src < 0) {
    rng.shuffle(cores);
    src = cores[0];
    dst = cores[1];
  }

  const int src_count = count_on(src);
  int movable = 0;
  if (per_replica > 1 && src_count % per_replica != 0) {
    // Prefer moving exactly the misaligned remainder.
    const int remainder = src_count % per_replica;
    if (s.can_add(dst, p.node, remainder)) movable = remainder;
  }
  if (movable == 0) {
    while (movable < src_count && s.can_add(dst, p.node, movable + 1)) {
      ++movable;
    }
  }
  if (movable == 0) return false;
  s.remove(src, p.node, movable);
  s.add(dst, p.node, movable);
  return true;
}

struct Individual {
  MappingSolution solution;
  double fitness = 0.0;
};

/// First index of the lowest fitness (the tie rule the sequential GA used).
std::size_t best_index(const std::vector<Individual>& population) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    if (population[i].fitness < population[best].fitness) best = i;
  }
  return best;
}

/// First index of the highest fitness (migration's replacement victim).
std::size_t worst_index(const std::vector<Individual>& population) {
  std::size_t worst = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    if (population[i].fitness > population[worst].fitness) worst = i;
  }
  return worst;
}

/// One island of the model: a sub-population and the buffer its next
/// generation is bred into, its private RNG stream, its SoA evaluator, its
/// breed-loop scratch, and its convergence record. Between migration barriers
/// every field is touched only by the parallel_for index that owns the
/// island; migration runs on the orchestrating thread after the barrier
/// (parallel_for's completion handshake provides the happens-before), so no
/// field needs a lock — see docs/concurrency.md.
struct Island {
  explicit Island(std::uint64_t seed) : rng(seed) {}

  Rng rng;
  int population_target = 0;
  std::vector<Individual> population;
  /// The generation being bred. Elites and children are copy-assigned into
  /// its existing solutions, then it is swapped with `population`, so a
  /// steady-state generation allocates nothing.
  std::vector<Individual> next;
  std::unique_ptr<PopulationEvaluator> evaluator;
  std::vector<double> best_history;  ///< best fitness after each generation
  int evaluations = 0;

  Scratch scratch;
  std::vector<std::size_t> ranking;  ///< elitism order
  std::vector<int> pending;          ///< slots awaiting evaluation
};

/// The pool the islands run on when the caller does not inject one.
/// Deliberately distinct from CompilerSession's job pool: a mapper blocked
/// in parallel_for drains only its own indices, and sizing follows the
/// machine rather than --jobs (which governs scenario-level parallelism).
/// Lazily constructed, shared by every concurrent compile — islands from
/// different jobs interleave on it without affecting results.
ThreadPool& island_pool() {
  static ThreadPool pool(ThreadPool::hardware_threads());
  return pool;
}

}  // namespace

MappingSolution GeneticMapper::map(const Workload& workload,
                                   const MapperOptions& options) {
  PIMCOMP_CHECK(config_.population >= 1, "population must be >= 1");
  PIMCOMP_CHECK(config_.generations >= 0, "generations must be >= 0");
  PIMCOMP_CHECK(config_.elite >= 0 && config_.elite <= config_.population,
                "elite must be within population");
  PIMCOMP_CHECK(config_.islands >= 1, "islands must be >= 1");
  PIMCOMP_CHECK(config_.migration_interval >= 1,
                "migration_interval must be >= 1");
  PIMCOMP_CHECK(config_.enable_grow || config_.enable_shrink ||
                    config_.enable_spread || config_.enable_merge,
                "at least one mutation operator must be enabled");

  const FitnessParams params =
      FitnessParams::from(workload.hardware(), options.parallelism_degree);
  const LLFitnessContext ll_context(workload);

  stats_ = GaStats{};

  // The population splits across the islands (remainder to the first ones),
  // each with its own RNG stream split from the request seed. Results
  // depend on (seed, islands) only — never on thread count — and islands=1
  // replays the pre-island sequential GA bit for bit (stream 0 IS the
  // request seed, and the evaluation restructure below draws no
  // randomness).
  const int island_count = std::min(config_.islands, config_.population);
  std::vector<Island> islands;
  islands.reserve(static_cast<std::size_t>(island_count));
  for (int k = 0; k < island_count; ++k) {
    Island island(split_seed(options.seed, static_cast<std::uint64_t>(k)));
    island.population_target =
        config_.population / island_count +
        (k < config_.population % island_count ? 1 : 0);
    island.evaluator = std::make_unique<PopulationEvaluator>(
        workload, params, options.mode, ll_context, island.population_target,
        options.max_nodes_per_core);
    islands.push_back(std::move(island));
  }

  ThreadPool* pool = options.pool != nullptr ? options.pool : &island_pool();
  // Islands are the unit of parallelism; with a single island the changed
  // children of a generation are the unit instead (both run on `pool`).
  ThreadPool* inner_pool =
      island_count == 1 && pool->size() > 1 ? pool : nullptr;

  // Children are bred with the island's RNG first and evaluated afterwards
  // as a batch: evaluation draws no randomness and nothing reads a child's
  // fitness within the generation that breeds it, so deferring the
  // evaluations preserves the sequential GA's RNG draw sequence exactly
  // while letting the batch run data-oriented over the island's SoA slots —
  // and, for islands=1, as a parallel-for over distinct slots.
  auto evaluate_batch = [](Island& island, std::vector<Individual>& crowd,
                           const std::vector<int>& pending,
                           ThreadPool* batch_pool) {
    auto evaluate_one = [&](int j) {
      const int slot = pending[static_cast<std::size_t>(j)];
      Individual& individual = crowd[static_cast<std::size_t>(slot)];
      island.evaluator->load(slot, individual.solution);
      individual.fitness = island.evaluator->evaluate(slot);
    };
    if (batch_pool != nullptr && pending.size() > 1) {
      batch_pool->parallel_for(static_cast<int>(pending.size()),
                               evaluate_one);
    } else {
      for (int j = 0; j < static_cast<int>(pending.size()); ++j) {
        evaluate_one(j);
      }
    }
    island.evaluations += static_cast<int>(pending.size());
  };

  // Memetic seeding: every island's first individual starts from the
  // pipeline-balanced heuristic (PumaMapper is deterministic, so one
  // computation serves them all). Elitism keeps it only while nothing
  // fitter is found, so the GA's result can never fall below the baseline
  // under its own objective (both the Fig 5 staircase and the Fig 6
  // recursion price cross-core accumulation and row-forwarding fan-out,
  // which keeps the objective aligned with the simulator). Seeding it
  // per island — not just into island 0 — is what keeps the island model
  // no worse than the sequential trajectory at equal budgets: without it,
  // islands 1..N-1 only meet the baseline via migration, generations late.
  // islands=1 degenerates to the sequential GA's single seeded individual.
  std::unique_ptr<MappingSolution> baseline_seed;
  if (config_.seed_baseline) {
    try {
      PumaMapper baseline;
      baseline_seed =
          std::make_unique<MappingSolution>(baseline.map(workload, options));
    } catch (const CapacityError&) {
      // Fall through to purely random initialization.
    }
  }

  auto init_island = [&](int k) {
    Island& island = islands[static_cast<std::size_t>(k)];
    island.population.reserve(
        static_cast<std::size_t>(island.population_target));
    island.best_history.reserve(
        static_cast<std::size_t>(config_.generations));
    std::vector<int>& pending = island.pending;
    pending.clear();
    if (baseline_seed != nullptr && island.population_target > 1) {
      island.population.push_back({*baseline_seed, 0.0});
      pending.push_back(0);
    }
    while (static_cast<int>(island.population.size()) <
           island.population_target) {
      // Large populations make initialization itself minutes-long on big
      // models, so cancellation is observed per individual here and per
      // island generation below — never finer, keeping the overhead
      // unmeasurable.
      if (options.cancel != nullptr) {
        options.cancel->throw_if_cancelled("ga population initialization");
      }
      MappingSolution s = random_individual(workload, options, island.rng,
                                            island.scratch,
                                            config_.target_fill);
      pending.push_back(static_cast<int>(island.population.size()));
      island.population.push_back({std::move(s), 0.0});
    }
    evaluate_batch(island, island.population, pending, inner_pool);
    // The breed buffer's solutions take their shape from the population
    // once; every generation after copies into them.
    island.next = island.population;
  };

  std::vector<int> ops;
  if (config_.enable_grow) ops.push_back(0);
  if (config_.enable_shrink) ops.push_back(1);
  if (config_.enable_spread) ops.push_back(2);
  if (config_.enable_merge) ops.push_back(3);

  // The elite budget is split across islands like the population (ceiling,
  // so every island keeps at least one elite when any is configured);
  // islands=1 degenerates to the sequential GA's `elite`.
  const int island_elite =
      config_.elite == 0 ? 0
                         : (config_.elite + island_count - 1) / island_count;

  auto run_generation = [&](Island& island, int generation) {
    // Cancellation lands within one *island* generation — a population/N
    // sweep, not a whole-population one (tests/test_compile_jobs.cpp pins
    // the 16-island latency).
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      throw CancelledError("mapping cancelled at generation " +
                           std::to_string(generation) + " of " +
                           std::to_string(config_.generations));
    }
    std::vector<Individual>& population = island.population;
    std::vector<Individual>& next = island.next;
    const int target = island.population_target;
    // Copy-assigns `parent` into the next slot of `next`, reusing that
    // slot's storage.
    int filled = 0;
    auto breed_from = [&](const Individual& parent) -> Individual& {
      Individual& child = next[static_cast<std::size_t>(filled++)];
      child = parent;
      return child;
    };
    // Elitism: carry the best individuals unchanged (no crossover; the
    // paper skips it as impractical for this encoding).
    std::vector<std::size_t>& ranking = island.ranking;
    ranking.resize(population.size());
    for (std::size_t i = 0; i < ranking.size(); ++i) ranking[i] = i;
    std::sort(ranking.begin(), ranking.end(),
              [&](std::size_t a, std::size_t b) {
                return population[a].fitness < population[b].fitness;
              });
    for (int e = 0; e < island_elite && e < target; ++e) {
      breed_from(population[ranking[static_cast<std::size_t>(e)]]);
    }

    auto tournament = [&]() -> const Individual& {
      std::size_t winner =
          static_cast<std::size_t>(island.rng.uniform_int(target));
      for (int i = 1; i < config_.tournament_size; ++i) {
        const auto rival =
            static_cast<std::size_t>(island.rng.uniform_int(target));
        if (population[rival].fitness < population[winner].fitness) {
          winner = rival;
        }
      }
      return population[winner];
    };

    std::vector<int>& pending = island.pending;
    pending.clear();
    while (filled < target) {
      Individual& child = breed_from(tournament());
      const int mutation_count = island.rng.uniform_range(
          1, std::max(1, config_.mutations_per_child));
      bool changed = false;
      for (int m = 0; m < mutation_count; ++m) {
        switch (ops[static_cast<std::size_t>(island.rng.pick_index(ops))]) {
          case 0:
            changed |=
                mutate_grow(child.solution, island.rng, island.scratch,
                            workload,
                            options.mode == PipelineMode::kLowLatency);
            break;
          case 1:
            changed |= mutate_shrink(child.solution, island.rng,
                                     island.scratch, workload);
            break;
          case 2: changed |= mutate_spread(child.solution, island.rng); break;
          case 3:
            changed |= mutate_merge(child.solution, island.rng,
                                    island.scratch, workload);
            break;
          default: break;
        }
      }
      if (changed) pending.push_back(filled - 1);
    }
    evaluate_batch(island, next, pending, inner_pool);
    population.swap(next);
    island.best_history.push_back(
        population[best_index(population)].fitness);
  };

  // parallel_for rethrows the lowest island's exception after every island
  // retires, so a CapacityError (or a cancel) surfaces identically at any
  // thread count.
  auto for_each_island = [&](const std::function<void(int)>& fn) {
    if (island_count > 1) {
      pool->parallel_for(island_count, fn);
    } else {
      fn(0);
    }
  };

  for_each_island(init_island);

  stats_.initial_best =
      islands[0].population[best_index(islands[0].population)].fitness;
  for (std::size_t k = 1; k < islands.size(); ++k) {
    stats_.initial_best = std::min(
        stats_.initial_best,
        islands[k].population[best_index(islands[k].population)].fitness);
  }
  stats_.best_history.push_back(stats_.initial_best);

  int done = 0;
  while (done < config_.generations) {
    const int chunk =
        std::min(config_.migration_interval, config_.generations - done);
    for_each_island([&](int k) {
      Island& island = islands[static_cast<std::size_t>(k)];
      for (int g = 0; g < chunk; ++g) run_generation(island, done + g);
    });
    done += chunk;

    if (island_count > 1 && done < config_.generations) {
      // Ring migration on the orchestrating thread: island k's best
      // replaces island (k+1)'s worst when fitter. Bests are snapshotted
      // first so the exchange is simultaneous — the outcome does not depend
      // on island order.
      std::vector<Individual> migrants;
      migrants.reserve(islands.size());
      for (Island& island : islands) {
        migrants.push_back(island.population[best_index(island.population)]);
      }
      for (int k = 0; k < island_count; ++k) {
        Island& target_island =
            islands[static_cast<std::size_t>((k + 1) % island_count)];
        const std::size_t worst = worst_index(target_island.population);
        if (migrants[static_cast<std::size_t>(k)].fitness <
            target_island.population[worst].fitness) {
          target_island.population[worst] =
              std::move(migrants[static_cast<std::size_t>(k)]);
        }
      }
    }
  }

  for (int g = 0; g < config_.generations; ++g) {
    double best = islands[0].best_history[static_cast<std::size_t>(g)];
    for (std::size_t k = 1; k < islands.size(); ++k) {
      best = std::min(best,
                      islands[k].best_history[static_cast<std::size_t>(g)]);
    }
    stats_.best_history.push_back(best);
  }
  for (const Island& island : islands) {
    stats_.evaluations += island.evaluations;
  }

  std::size_t winner_island = 0;
  std::size_t winner = best_index(islands[0].population);
  for (std::size_t k = 1; k < islands.size(); ++k) {
    const std::size_t b = best_index(islands[k].population);
    if (islands[k].population[b].fitness <
        islands[winner_island].population[winner].fitness) {
      winner_island = k;
      winner = b;
    }
  }
  stats_.final_best = islands[winner_island].population[winner].fitness;
  MappingSolution result =
      std::move(islands[winner_island].population[winner].solution);
  result.validate();
  return result;
}

PIMCOMP_REGISTER_MAPPER("ga", [](const CompileOptions& options) {
  return std::make_unique<GeneticMapper>(options.ga);
});

}  // namespace pimcomp
