#include "mapping/mapping_solution.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace pimcomp {

namespace {

/// Core `core`'s bit within its word of a core bitset.
std::uint64_t bit_of(int core) { return std::uint64_t{1} << (core % 64); }

}  // namespace

MappingSolution::MappingSolution(const Workload& workload,
                                 int max_nodes_per_core)
    : workload_(&workload),
      core_count_(workload.hardware().core_count),
      max_nodes_per_core_(max_nodes_per_core),
      stride_(std::min(max_nodes_per_core, workload.partition_count())),
      host_words_((core_count_ + 63) / 64) {
  PIMCOMP_CHECK(max_nodes_per_core >= 1,
                "max_nodes_per_core must be positive");
  const auto cores = static_cast<std::size_t>(core_count_);
  const auto parts = static_cast<std::size_t>(workload.partition_count());
  genes_.resize(cores * static_cast<std::size_t>(stride_));
  gene_count_.assign(cores, 0);
  xbars_used_.assign(cores, 0);
  total_ags_.assign(parts, 0);
  hosts_.assign(parts * static_cast<std::size_t>(host_words_), 0);
  touched_.assign(static_cast<std::size_t>(host_words_), 0);
}

Gene* MappingSolution::core_genes(int core) {
  return genes_.data() + static_cast<std::size_t>(core) * stride_;
}

std::uint64_t* MappingSolution::host_bits(int part) {
  return hosts_.data() + static_cast<std::size_t>(part) * host_words_;
}

bool MappingSolution::can_add(int core, NodeId node, int ag_count) const {
  PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
  PIMCOMP_ASSERT(ag_count > 0, "ag_count must be positive");
  const NodePartition& p = workload_->partition_of(node);
  if (xbars_used_[static_cast<std::size_t>(core)] +
          ag_count * p.xbars_per_ag >
      workload_->hardware().xbars_per_core) {
    return false;
  }
  if (!has_node(core, node)) return gene_count(core) < max_nodes_per_core_;
  // Guard the integer gene encoding bound.
  return ags_on(core, node) + ag_count <= kMaxAgCountPerGene;
}

int MappingSolution::first_fit(int offset, NodeId node, int ag_count,
                               int exclude) const {
  PIMCOMP_ASSERT(offset >= 0 && offset < core_count_, "offset out of range");
  PIMCOMP_ASSERT(ag_count > 0, "ag_count must be positive");
  // can_add's three tests with everything that does not depend on the core
  // hoisted: the partition, the crossbar need and the host bitset.
  const NodePartition& p = workload_->partition_of(node);
  const std::span<const std::uint64_t> bits =
      hosts(workload_->partition_index(node));
  const int limit =
      workload_->hardware().xbars_per_core - ag_count * p.xbars_per_ag;
  auto fits = [&](int c) {
    const auto core = static_cast<std::size_t>(c);
    if (c == exclude || xbars_used_[core] > limit) return false;
    if ((bits[core / 64] & bit_of(c)) == 0) {
      return gene_count_[core] < max_nodes_per_core_;
    }
    return ags_on(c, node) + ag_count <= kMaxAgCountPerGene;
  };
  for (int c = offset; c < core_count_; ++c) {
    if (fits(c)) return c;
  }
  for (int c = 0; c < offset; ++c) {
    if (fits(c)) return c;
  }
  return -1;
}

void MappingSolution::add(int core, NodeId node, int ag_count) {
  PIMCOMP_CHECK(can_add(core, node, ag_count),
                "MappingSolution::add called with infeasible placement");
  const NodePartition& p = workload_->partition_of(node);
  const int part = workload_->partition_index(node);
  Gene* slots = core_genes(core);
  int& count = gene_count_[static_cast<std::size_t>(core)];
  Gene* it = std::find_if(slots, slots + count,
                          [node](const Gene& g) { return g.node == node; });
  if (it == slots + count) {
    slots[count++] = Gene{node, ag_count};
    host_bits(part)[core / 64] |= bit_of(core);
  } else {
    it->ag_count += ag_count;
  }
  xbars_used_[static_cast<std::size_t>(core)] += ag_count * p.xbars_per_ag;
  total_xbars_ += ag_count * p.xbars_per_ag;
  total_ags_[static_cast<std::size_t>(part)] += ag_count;
  touched_[static_cast<std::size_t>(core / 64)] |= bit_of(core);
}

int MappingSolution::remove(int core, NodeId node, int ag_count) {
  PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
  PIMCOMP_ASSERT(ag_count > 0, "ag_count must be positive");
  if (!has_node(core, node)) return 0;
  const int part = workload_->partition_index(node);
  Gene* slots = core_genes(core);
  int& count = gene_count_[static_cast<std::size_t>(core)];
  Gene* it = std::find_if(slots, slots + count,
                          [node](const Gene& g) { return g.node == node; });
  const int removed = std::min(it->ag_count, ag_count);
  it->ag_count -= removed;
  if (it->ag_count == 0) {
    // Shift the later genes left to keep placement order: mutations pick
    // genes by index, so the order is part of the GA's trajectory.
    std::copy(it + 1, slots + count, it);
    --count;
    host_bits(part)[core / 64] &= ~bit_of(core);
  }
  const NodePartition& p = workload_->partition_of(node);
  xbars_used_[static_cast<std::size_t>(core)] -= removed * p.xbars_per_ag;
  total_xbars_ -= removed * p.xbars_per_ag;
  total_ags_[static_cast<std::size_t>(part)] -= removed;
  touched_[static_cast<std::size_t>(core / 64)] |= bit_of(core);
  return removed;
}

int MappingSolution::total_ags(NodeId node) const {
  return total_ags_[static_cast<std::size_t>(workload_->partition_index(node))];
}

int MappingSolution::replication(NodeId node) const {
  const NodePartition& p = workload_->partition_of(node);
  return total_ags(node) / p.ags_per_replica();
}

int MappingSolution::cycles(NodeId node) const {
  const NodePartition& p = workload_->partition_of(node);
  const int r = replication(node);
  PIMCOMP_ASSERT(r >= 1, "cycles() on a node without a full replica");
  return ceil_div(p.windows, r);
}

int MappingSolution::xbars_used(int core) const {
  PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
  return xbars_used_[static_cast<std::size_t>(core)];
}

int MappingSolution::free_xbars(int core) const {
  return workload_->hardware().xbars_per_core - xbars_used(core);
}

int MappingSolution::gene_count(int core) const {
  PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
  return gene_count_[static_cast<std::size_t>(core)];
}

bool MappingSolution::has_node(int core, NodeId node) const {
  PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
  const int part = workload_->partition_index(node);
  if (part < 0) return false;
  const std::span<const std::uint64_t> bits = hosts(part);
  return (bits[static_cast<std::size_t>(core / 64)] & bit_of(core)) != 0;
}

std::vector<int> MappingSolution::cores_of(NodeId node) const {
  std::vector<int> cores;
  cores_of(node, cores);
  return cores;
}

void MappingSolution::cores_of(NodeId node, std::vector<int>& out) const {
  out.clear();
  const int part = workload_->partition_index(node);
  if (part < 0) return;
  for_each_bit(hosts(part), [&out](int core) { out.push_back(core); });
}

void MappingSolution::validate() const {
  const HardwareConfig& hw = workload_->hardware();
  std::vector<int> recount(static_cast<std::size_t>(
                               workload_->partition_count()),
                           0);
  std::int64_t gene_total = 0;
  std::int64_t xbar_total = 0;
  for (int c = 0; c < core_count_; ++c) {
    const std::span<const Gene> core_genes = genes(c);
    gene_total += static_cast<std::int64_t>(core_genes.size());
    if (static_cast<int>(core_genes.size()) > max_nodes_per_core_) {
      throw Error("core " + std::to_string(c) + " holds " +
                  std::to_string(core_genes.size()) +
                  " nodes, exceeding max_nodes_per_core");
    }
    int xbars = 0;
    for (std::size_t i = 0; i < core_genes.size(); ++i) {
      const Gene& g = core_genes[i];
      PIMCOMP_ASSERT(g.ag_count > 0, "gene with zero AG count");
      for (std::size_t j = i + 1; j < core_genes.size(); ++j) {
        if (core_genes[j].node == g.node) {
          throw Error("core " + std::to_string(c) +
                      " has duplicate genes for node " +
                      std::to_string(g.node));
        }
      }
      if (!has_node(c, g.node)) {
        throw Error("core " + std::to_string(c) + " host bitset misses node " +
                    std::to_string(g.node));
      }
      const NodePartition& p = workload_->partition_of(g.node);
      xbars += g.ag_count * p.xbars_per_ag;
      recount[static_cast<std::size_t>(workload_->partition_index(g.node))] +=
          g.ag_count;
    }
    if (xbars != xbars_used_[static_cast<std::size_t>(c)]) {
      throw Error("core " + std::to_string(c) + " crossbar cache is stale");
    }
    xbar_total += xbars;
    if (xbars > hw.xbars_per_core) {
      throw Error("core " + std::to_string(c) + " uses " +
                  std::to_string(xbars) + " crossbars, budget is " +
                  std::to_string(hw.xbars_per_core));
    }
  }
  if (xbar_total != total_xbars_) {
    throw Error("chip-wide crossbar total is stale");
  }
  // Every gene's bit is set (checked above); equal totals rule out strays.
  std::int64_t bits_set = 0;
  for (std::uint64_t word : hosts_) bits_set += std::popcount(word);
  if (bits_set != gene_total) {
    throw Error("host-core bitsets hold " + std::to_string(bits_set) +
                " bits for " + std::to_string(gene_total) + " genes");
  }
  for (const NodePartition& p : workload_->partitions()) {
    const int total =
        recount[static_cast<std::size_t>(workload_->partition_index(p.node))];
    if (total != total_ags(p.node)) {
      throw Error("node " + std::to_string(p.node) + " AG-total cache stale");
    }
    if (total < p.ags_per_replica()) {
      throw Error("node " + std::to_string(p.node) +
                  " lacks a full replica (" + std::to_string(total) + "/" +
                  std::to_string(p.ags_per_replica()) + " AGs)");
    }
    if (total % p.ags_per_replica() != 0) {
      throw Error("node " + std::to_string(p.node) + " AG total " +
                  std::to_string(total) +
                  " is not a multiple of ags_per_replica " +
                  std::to_string(p.ags_per_replica()));
    }
  }
}

std::vector<AgInstance> MappingSolution::instantiate() const {
  validate();
  std::vector<AgInstance> instances;
  for (const NodePartition& p : workload_->partitions()) {
    const int col_chunks = p.col_chunks;
    const int row_slices = p.row_slices;
    const int per_replica = row_slices * col_chunks;

    auto emit = [&](int core, std::int64_t identity) {
      AgInstance ag;
      ag.node = p.node;
      ag.replica = static_cast<int>(identity / per_replica);
      const int within = static_cast<int>(identity % per_replica);
      ag.row_slice = within / col_chunks;
      ag.col_chunk = within % col_chunks;
      ag.core = core;
      ag.xbars = p.xbars_per_ag;
      ag.cols = p.chunk_cols(ag.col_chunk);
      instances.push_back(ag);
    };

    // Pass 1: every gene realizes as many *whole* replicas as it can hold,
    // keeping each replica's accumulation group on one core (no cross-core
    // partial sums for them). Pass 2 stitches the per-gene remainders into
    // the trailing replicas, which also carry the shortest window ranges.
    std::int64_t next = 0;
    std::vector<std::pair<int, int>> remainders;  // (core, leftover AGs)
    for (int c : cores_of(p.node)) {
      for (const Gene& g : genes(c)) {
        if (g.node != p.node) continue;
        const int whole = g.ag_count / per_replica;
        for (int k = 0; k < whole * per_replica; ++k) emit(c, next++);
        const int leftover = g.ag_count - whole * per_replica;
        if (leftover > 0) remainders.emplace_back(c, leftover);
      }
    }
    for (const auto& [core, leftover] : remainders) {
      for (int k = 0; k < leftover; ++k) emit(core, next++);
    }
  }
  return instances;
}

std::vector<std::int64_t> MappingSolution::encode() const {
  std::vector<std::int64_t> chromosome(
      static_cast<std::size_t>(core_count_) * max_nodes_per_core_, 0);
  for (int c = 0; c < core_count_; ++c) {
    const std::span<const Gene> core_genes = genes(c);
    for (std::size_t i = 0; i < core_genes.size(); ++i) {
      chromosome[static_cast<std::size_t>(c) * max_nodes_per_core_ + i] =
          encode_gene(core_genes[i]);
    }
  }
  return chromosome;
}

MappingSolution MappingSolution::decode(
    const Workload& workload, int max_nodes_per_core,
    const std::vector<std::int64_t>& chromosome) {
  MappingSolution solution(workload, max_nodes_per_core);
  PIMCOMP_CHECK(chromosome.size() ==
                    static_cast<std::size_t>(solution.core_count()) *
                        max_nodes_per_core,
                "chromosome length must be core_count * max_nodes_per_core");
  for (std::size_t slot = 0; slot < chromosome.size(); ++slot) {
    const Gene gene = decode_gene(chromosome[slot]);
    if (gene.ag_count == 0) continue;
    const int core = static_cast<int>(slot) / max_nodes_per_core;
    solution.add(core, gene.node, gene.ag_count);
  }
  return solution;
}

Json MappingSolution::to_json() const {
  Json chromosome = Json::array();
  for (std::int64_t gene : encode()) chromosome.push_back(gene);
  Json json = Json::object();
  json["max_nodes_per_core"] = max_nodes_per_core_;
  json["chromosome"] = std::move(chromosome);
  return json;
}

MappingSolution MappingSolution::from_json(const Workload& workload,
                                           const Json& json) {
  const int max_nodes =
      static_cast<int>(json.at("max_nodes_per_core").as_int());
  if (max_nodes < 1) {
    throw JsonError("mapping solution: max_nodes_per_core must be >= 1");
  }
  const Json& encoded = json.at("chromosome");
  if (!encoded.is_array()) {
    throw JsonError("mapping solution: chromosome must be an array");
  }
  std::vector<std::int64_t> chromosome;
  chromosome.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    chromosome.push_back(encoded.at(i).as_int());
  }
  // decode() throws on length mismatches and infeasible placements (the
  // crossbar/slot budgets of *this* workload's hardware); validate()
  // re-proves the replication invariants, so a loaded solution is exactly
  // as trustworthy as a freshly mapped one.
  MappingSolution solution =
      MappingSolution::decode(workload, max_nodes, chromosome);
  solution.validate();
  return solution;
}

std::string MappingSolution::to_string() const {
  std::ostringstream oss;
  oss << "mapping over " << core_count_ << " cores, "
      << total_xbars_used() << " crossbars used\n";
  for (const NodePartition& p : workload_->partitions()) {
    oss << "  node " << p.node << " ("
        << workload_->graph().node(p.node).name
        << "): R=" << replication(p.node) << " over cores {";
    bool first = true;
    for (int c : cores_of(p.node)) {
      if (!first) oss << ", ";
      oss << c;
      first = false;
    }
    oss << "}\n";
  }
  return oss.str();
}

}  // namespace pimcomp
