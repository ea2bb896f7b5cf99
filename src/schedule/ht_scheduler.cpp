#include "schedule/ht_scheduler.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
// pimcomp-layer-exempt: self-registration into the scheduler registry —
// the plugin seam every strategy TU uses, not a dependency on core logic.
#include "core/pipeline.hpp"
#include "mapping/fitness.hpp"
#include "schedule/ag_layout.hpp"
#include "schedule/vec_placement.hpp"

namespace pimcomp {

namespace {

/// Emission context for one core: its program plus the scratchpad planner.
struct CoreCtx {
  std::vector<Operation> program;
  LocalMemoryPlanner planner;
  std::int64_t last_stamp = -1;

  CoreCtx(MemoryPolicy policy, std::int64_t capacity)
      : planner(policy, capacity, /*spill_on_overflow=*/true) {}

  Operation& emit(Operation op) {
    program.push_back(op);
    return program.back();
  }

  /// Stamps the current planner usage onto the most recent op when changed.
  void stamp() {
    if (program.empty()) return;
    if (planner.usage() != last_stamp) {
      program.back().local_usage = planner.usage();
      last_stamp = planner.usage();
    }
  }
};

/// Windows of group `g` processed in its batch `k`.
int batch_windows(const AccumGroup& g, int k, int flush) {
  const int begin = g.window_begin + k * flush;
  const int end = std::min(g.window_end, begin + flush);
  return std::max(0, end - begin);
}

}  // namespace

Schedule schedule_ht(const MappingSolution& solution,
                     const HtScheduleOptions& options) {
  PIMCOMP_CHECK(options.flush_windows >= 1, "flush_windows must be >= 1");
  const Workload& workload = solution.workload();
  const Graph& graph = workload.graph();
  const HardwareConfig& hw = workload.hardware();
  const AgLayout layout = AgLayout::build(solution);
  const std::int64_t act_bytes = hw.activation_bits / 8;
  const int flush = options.flush_windows;
  const int cores = solution.core_count();

  std::vector<CoreCtx> ctx;
  ctx.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    ctx.emplace_back(options.memory_policy, hw.local_memory_bytes);
  }

  // Group ids each core participates in (sorted ascending = the globally
  // consistent iteration order that keeps channel FIFOs matched).
  std::vector<std::vector<int>> core_groups(static_cast<std::size_t>(cores));
  // Member instances per (group, core).
  std::vector<std::vector<std::pair<int, std::vector<int>>>> group_core_members(
      layout.groups.size());
  for (std::size_t gid = 0; gid < layout.groups.size(); ++gid) {
    const AccumGroup& g = layout.groups[gid];
    if (g.empty()) continue;
    for (int member : g.members) {
      const int core = layout.instances[static_cast<std::size_t>(member)].core;
      auto& per_core = group_core_members[gid];
      auto it = std::find_if(per_core.begin(), per_core.end(),
                             [core](const auto& e) { return e.first == core; });
      if (it == per_core.end()) {
        per_core.push_back({core, {member}});
        core_groups[static_cast<std::size_t>(core)].push_back(
            static_cast<int>(gid));
      } else {
        it->second.push_back(member);
      }
    }
  }
  for (auto& groups : core_groups) std::sort(groups.begin(), groups.end());

  const int fused_bit_count = graph.node_count();
  std::vector<bool> has_fused_act(static_cast<std::size_t>(fused_bit_count),
                                  false);
  for (const Node& node : graph.nodes()) {
    if (is_fused_activation(graph, node.id)) {
      has_fused_act[static_cast<std::size_t>(node.inputs[0])] = true;
    }
  }

  // Deferred cross-core accumulation work per owner core: (gid, batch,
  // payload bytes, add elements), drained after the MVM stream.
  struct DrainEntry {
    int gid = 0;
    int batch = 0;
    std::int64_t payload = 0;
    std::int64_t add_elems = 0;
  };
  std::vector<std::vector<DrainEntry>> drain_entries(
      static_cast<std::size_t>(cores));

  // --- Crossbar-node batches (Algorithm 1 lines 1-9) -------------------------
  for (int c = 0; c < cores; ++c) {
    CoreCtx& core = ctx[static_cast<std::size_t>(c)];
    const auto& groups = core_groups[static_cast<std::size_t>(c)];
    int total_batches = 0;
    for (int gid : groups) {
      const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
      total_batches =
          std::max(total_batches, ceil_div(g.window_count(), flush));
    }

    for (int k = 0; k < total_batches; ++k) {
      // Partial-sum block per (instance, batch); indexed by instance id.
      std::vector<std::pair<int, int>> partial_blocks;  // (instance, block)

      // Load input slices for every node active on this core in batch k.
      // Sliding windows overlap, so steady state only fetches the *new*
      // input pixels each window uncovers (stride_h * stride_w * Cin
      // elements); the overlapping rest stays resident in local memory and
      // is broadcast to the node's AGs (paper §IV-B). Each AG charges its
      // row-slice share of that traffic.
      std::vector<std::pair<NodeId, std::int64_t>> load_bytes;
      for (int gid : groups) {
        const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
        const int b = batch_windows(g, k, flush);
        if (b == 0) continue;
        const NodePartition& p =
            workload.partitions()[static_cast<std::size_t>(g.partition)];
        const Node& node = graph.node(g.node);
        std::int64_t new_elems_per_window = p.matrix_rows;  // FC: everything
        if (node.type == OpType::kConv) {
          const TensorShape in_shape =
              graph.node(node.inputs[0]).output_shape;
          new_elems_per_window = std::min<std::int64_t>(
              p.matrix_rows, static_cast<std::int64_t>(in_shape.channels) *
                                 node.conv.stride * node.conv.stride);
        }
        std::int64_t bytes = 0;
        for (const auto& [core_id, members] :
             group_core_members[static_cast<std::size_t>(gid)]) {
          if (core_id != c) continue;
          for (int m : members) {
            const double slice_share =
                static_cast<double>(AgLayout::slice_rows(
                    p, layout.instances[static_cast<std::size_t>(m)], hw)) /
                static_cast<double>(p.matrix_rows);
            bytes += static_cast<std::int64_t>(
                static_cast<double>(b) *
                static_cast<double>(new_elems_per_window) * slice_share *
                static_cast<double>(act_bytes));
          }
        }
        if (bytes == 0) continue;
        auto it =
            std::find_if(load_bytes.begin(), load_bytes.end(),
                         [&](const auto& e) { return e.first == g.node; });
        if (it == load_bytes.end()) {
          load_bytes.push_back({g.node, bytes});
        } else {
          it->second += bytes;
        }
      }
      for (const auto& [node, bytes] : load_bytes) {
        core.planner.alloc(bytes, BlockClass::kInput);
        Operation op;
        op.kind = OpKind::kLoadGlobal;
        op.node = node;
        op.bytes = bytes;
        core.emit(op);
        core.stamp();
      }

      // One MVM per unfinished AG per window (Algorithm 1 lines 4-5).
      for (int w_off = 0; w_off < flush; ++w_off) {
        for (int gid : groups) {
          const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
          const int b = batch_windows(g, k, flush);
          if (w_off >= b) continue;
          const int window = g.window_begin + k * flush + w_off;
          for (const auto& [core_id, members] :
               group_core_members[static_cast<std::size_t>(gid)]) {
            if (core_id != c) continue;
            for (int m : members) {
              const AgInstance& ag =
                  layout.instances[static_cast<std::size_t>(m)];
              if (w_off == 0) {
                const int block = core.planner.alloc(
                    static_cast<std::int64_t>(b) * g.cols * act_bytes,
                    BlockClass::kPartial);
                partial_blocks.push_back({m, block});
              }
              Operation op;
              op.kind = OpKind::kMvm;
              op.node = g.node;
              op.ag = m;
              op.window = window;
              op.xbars = ag.xbars;
              core.emit(op);
              core.stamp();
            }
          }
        }
      }

      auto partial_block_of = [&partial_blocks](int instance) {
        for (const auto& [m, block] : partial_blocks) {
          if (m == instance) return block;
        }
        return -1;
      };

      // Accumulate within and across cores, activate, store (lines 6-9).
      for (int gid : groups) {
        const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
        const int b = batch_windows(g, k, flush);
        if (b == 0) continue;
        const std::int64_t payload =
            static_cast<std::int64_t>(b) * g.cols * act_bytes;
        const std::int64_t add_elems = static_cast<std::int64_t>(b) * g.cols;

        std::vector<int> members_here;
        for (const auto& [core_id, members] :
             group_core_members[static_cast<std::size_t>(gid)]) {
          if (core_id == c) members_here = members;
        }
        if (members_here.empty()) continue;

        // Local accumulation chain: the first local partial becomes (or
        // feeds) the accumulator; a zero-element VFU op pins the MVM
        // dependency of the seed partial.
        int acc = partial_block_of(members_here.front());
        {
          Operation seed;
          seed.kind = OpKind::kVfu;
          seed.node = g.node;
          seed.ag = members_here.front();
          seed.elements = 0;
          core.emit(seed);
        }
        for (std::size_t i = 1; i < members_here.size(); ++i) {
          Operation add;
          add.kind = OpKind::kVfu;
          add.node = g.node;
          add.ag = members_here[i];
          add.elements = add_elems;
          core.emit(add);
          acc = core.planner.accumulate_into(acc, payload);
          core.planner.free(partial_block_of(members_here[i]));
          core.stamp();
        }

        if (g.owner_core == c) {
          bool has_remote = false;
          for (const auto& [core_id, members] :
               group_core_members[static_cast<std::size_t>(gid)]) {
            if (core_id != c) has_remote = true;
          }
          if (has_remote) {
            // Cross-core accumulation is deferred to the drain phase: in HT
            // the pipeline stages work on different inferences, so pulling
            // batch k's remote partials must not stall batch k+1's MVM
            // issue. The partial is staged (double-buffered) and folded
            // after this core's own MVM stream finishes.
            drain_entries[static_cast<std::size_t>(c)].push_back(
                {gid, k, payload, add_elems});
            core.planner.free(acc);
            core.stamp();
          } else {
            if (has_fused_act[static_cast<std::size_t>(g.node)]) {
              Operation act;
              act.kind = OpKind::kVfu;
              act.node = g.node;
              act.elements = add_elems;
              core.emit(act);
            }
            Operation store;
            store.kind = OpKind::kStoreGlobal;
            store.node = g.node;
            store.bytes = payload;
            core.emit(store);
            core.planner.free(acc);
            core.stamp();
          }
        } else {
          // Ship the locally-reduced partial to the owner core.
          Operation send;
          send.kind = OpKind::kCommSend;
          send.node = g.node;
          send.ag = members_here.front();
          send.peer = g.owner_core;
          send.bytes = payload;
          core.emit(send);
          core.planner.free(acc);
          core.stamp();
        }
      }

      core.planner.flush();
      core.stamp();
    }

    // Drain phase: fold remote partials for the groups this core owns.
    // Entries are ordered (batch, gid), matching every member core's send
    // order on its channel, so FIFO pairing holds.
    for (const DrainEntry& entry : drain_entries[static_cast<std::size_t>(c)]) {
      const AccumGroup& g =
          layout.groups[static_cast<std::size_t>(entry.gid)];
      const int acc =
          core.planner.alloc(entry.payload, BlockClass::kAccumulator);
      for (const auto& [core_id, members] :
           group_core_members[static_cast<std::size_t>(entry.gid)]) {
        if (core_id == c) continue;
        Operation recv;
        recv.kind = OpKind::kCommRecv;
        recv.node = g.node;
        recv.peer = core_id;
        recv.bytes = entry.payload;
        core.emit(recv);
        const int staging =
            core.planner.alloc(entry.payload, BlockClass::kPartial);
        Operation add;
        add.kind = OpKind::kVfu;
        add.node = g.node;
        add.elements = entry.add_elems;
        core.emit(add);
        core.planner.force_free(staging);
        core.stamp();
      }
      if (has_fused_act[static_cast<std::size_t>(g.node)]) {
        Operation act;
        act.kind = OpKind::kVfu;
        act.node = g.node;
        act.elements = entry.add_elems;
        core.emit(act);
      }
      Operation store;
      store.kind = OpKind::kStoreGlobal;
      store.node = g.node;
      store.bytes = entry.payload;
      core.emit(store);
      core.planner.force_free(acc);
      core.stamp();
    }
  }

  // --- Standalone vector operations (Algorithm 1 line 10) --------------------
  int rr_core = 0;
  for (NodeId v : standalone_vec_nodes(graph)) {
    CoreCtx& core = ctx[static_cast<std::size_t>(rr_core)];
    rr_core = (rr_core + 1) % cores;
    const std::int64_t in_bytes = node_input_bytes(graph, v, hw);
    const std::int64_t out_bytes = node_output_bytes(graph, v, hw);
    core.planner.alloc(in_bytes + out_bytes, BlockClass::kOther);
    Operation load;
    load.kind = OpKind::kLoadGlobal;
    load.node = v;
    load.bytes = in_bytes;
    core.emit(load);
    core.stamp();
    const std::int64_t elems = vfu_elements(graph, v);
    if (elems > 0) {
      Operation vec;
      vec.kind = OpKind::kVfu;
      vec.node = v;
      vec.elements = elems;
      core.emit(vec);
    }
    Operation store;
    store.kind = OpKind::kStoreGlobal;
    store.node = v;
    store.bytes = out_bytes;
    core.emit(store);
    core.planner.flush();
    core.stamp();
  }

  Schedule schedule;
  schedule.ag_count = static_cast<int>(layout.instances.size());
  schedule.programs.reserve(static_cast<std::size_t>(cores));
  schedule.spill_bytes.reserve(static_cast<std::size_t>(cores));
  schedule.peak_local_bytes.reserve(static_cast<std::size_t>(cores));
  for (CoreCtx& core : ctx) {
    schedule.total_ops += static_cast<std::int64_t>(core.program.size());
    schedule.spill_bytes.push_back(core.planner.spill_traffic_bytes());
    schedule.peak_local_bytes.push_back(core.planner.peak_usage());
    schedule.programs.push_back(std::move(core.program));
  }
  return schedule;
}

namespace {

/// HT mode as a pluggable pipeline strategy: Algorithm 1 dataflow plus the
/// F_HT objective (paper Fig 5).
class HtScheduler : public Scheduler {
 public:
  std::string name() const override { return "ht-dataflow"; }

  Schedule build(const MappingSolution& solution,
                 const CompileOptions& options) const override {
    HtScheduleOptions ht;
    ht.memory_policy = options.memory_policy;
    ht.flush_windows = options.ht_flush_windows;
    return schedule_ht(solution, ht);
  }

  double estimate_fitness(const Workload&, const MappingSolution& solution,
                          const FitnessParams& params) const override {
    return ht_fitness(solution, params);
  }
};

}  // namespace

PIMCOMP_REGISTER_SCHEDULER("ht",
                           [] { return std::make_unique<HtScheduler>(); });

}  // namespace pimcomp
