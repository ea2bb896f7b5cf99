#include "schedule/ll_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
// pimcomp-layer-exempt: self-registration into the scheduler registry —
// the plugin seam every strategy TU uses, not a dependency on core logic.
#include "core/pipeline.hpp"
#include "mapping/fitness.hpp"
#include "schedule/ag_layout.hpp"
#include "schedule/receptive_field.hpp"
#include "schedule/vec_placement.hpp"

namespace pimcomp {

namespace {

constexpr int kRowInf = std::numeric_limits<int>::max() / 2;

/// One row packet registered on a (src core -> dst core) channel at
/// generation time. `provider` is the producing partition (or -1 for graph
/// input rows); `row` the provider-grid row it completes.
struct PacketGen {
  int provider = -1;
  int row = 0;
  std::int64_t bytes = 0;
};

/// Generation-time channel bookkeeping: packets sent, in order, and how far
/// the consumer core has drained.
struct ChannelGen {
  std::vector<PacketGen> packets;
  std::size_t drained = 0;
};

/// A packet resident in a consumer core's scratchpad awaiting retirement.
struct HeldPacket {
  int provider = -1;
  int row = 0;
  int block = -1;
};

struct CoreCtx {
  std::vector<Operation> program;
  LocalMemoryPlanner planner;
  std::int64_t last_stamp = -1;
  std::vector<HeldPacket> held;
  std::map<int, std::map<int, int>> floors;  // provider -> consumer -> floor
  int input_rows_loaded = 0;

  CoreCtx(MemoryPolicy policy, std::int64_t capacity)
      : planner(policy, capacity, /*spill_on_overflow=*/false) {}

  void emit(Operation op) { program.push_back(op); }

  void stamp() {
    if (program.empty()) return;
    if (planner.usage() != last_stamp) {
      program.back().local_usage = planner.usage();
      last_stamp = planner.usage();
    }
  }
};

/// Per-(group, row) accumulation state while the row is in flight.
struct RowAcc {
  int windows = 0;                      ///< windows of this group in the row
  int owner_acc_block = -1;             ///< accumulator on the owner core
  std::map<int, int> remote_row_block;  ///< member core -> row buffer block
  std::vector<std::pair<int, int>> transients;  ///< (core, block) to retire
};

}  // namespace

Schedule schedule_ll(const MappingSolution& solution,
                     const LlScheduleOptions& options) {
  const Workload& workload = solution.workload();
  const Graph& graph = workload.graph();
  const HardwareConfig& hw = workload.hardware();
  const AgLayout layout = AgLayout::build(solution);
  const std::int64_t act_bytes = hw.activation_bits / 8;
  const int cores = solution.core_count();
  const int part_count = workload.partition_count();
  const MemoryPolicy policy = options.memory_policy;

  std::vector<CoreCtx> ctx;
  ctx.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    ctx.emplace_back(policy, hw.local_memory_bytes);
  }

  std::map<std::pair<int, int>, ChannelGen> channels;

  // --- Static per-partition facts --------------------------------------------
  struct ProviderInfo {
    int provider = -1;
    int span_rows = 1;  ///< provider rows the first window needs
    bool full = false;  ///< whole-stream consumer (FC-like)
  };
  std::vector<std::vector<int>> subscribers(
      static_cast<std::size_t>(part_count));
  std::vector<std::vector<ProviderInfo>> providers(
      static_cast<std::size_t>(part_count));
  std::vector<bool> has_crossbar_consumer(static_cast<std::size_t>(part_count),
                                          false);
  std::vector<std::int64_t> vec_per_row_unit(
      static_cast<std::size_t>(part_count), 0);

  for (int pi = 0; pi < part_count; ++pi) {
    const NodePartition& p =
        workload.partitions()[static_cast<std::size_t>(pi)];
    for (const ProviderRequirement& req :
         trace_requirements(workload, p.node, 1, 1)) {
      ProviderInfo info;
      info.provider = req.provider;
      info.full = req.pos.full;
      info.span_rows = req.pos.full ? kRowInf : req.pos.row;
      providers[static_cast<std::size_t>(pi)].push_back(info);
      if (req.provider >= 0) {
        has_crossbar_consumer[static_cast<std::size_t>(req.provider)] = true;
        auto& subs = subscribers[static_cast<std::size_t>(req.provider)];
        for (int host :
             layout.partition_host_cores[static_cast<std::size_t>(pi)]) {
          if (std::find(subs.begin(), subs.end(), host) == subs.end()) {
            subs.push_back(host);
          }
        }
      }
    }
    const std::int64_t row_units =
        static_cast<std::int64_t>(p.out_height) * p.col_chunks;
    vec_per_row_unit[static_cast<std::size_t>(pi)] =
        downstream_vec_elements(workload, p.node) /
        std::max<std::int64_t>(1, row_units);
  }
  for (auto& subs : subscribers) std::sort(subs.begin(), subs.end());

  const std::int64_t input_row_bytes =
      static_cast<std::int64_t>(graph.node(0).output_shape.width) *
      graph.node(0).output_shape.channels * act_bytes;
  const int input_rows = graph.node(0).output_shape.height;

  // Reuse-less policies hold one extra receptive span before retiring
  // consumed rows (coarse line buffering); AG-reuse retires exactly.
  auto retention_margin = [&](int span_rows) {
    return policy == MemoryPolicy::kAgReuse ? 0 : span_rows;
  };

  auto retire_packets = [&](int c, int provider) {
    CoreCtx& core = ctx[static_cast<std::size_t>(c)];
    auto floors_it = core.floors.find(provider);
    if (floors_it == core.floors.end()) return;
    int floor = kRowInf;
    for (const auto& [consumer, f] : floors_it->second) {
      floor = std::min(floor, f);
    }
    if (floor <= 0) return;
    bool freed = false;
    for (HeldPacket& held : core.held) {
      if (held.provider == provider && held.block >= 0 && held.row < floor) {
        core.planner.force_free(held.block);
        held.block = -1;
        freed = true;
      }
    }
    if (freed) core.stamp();
  };

  // Makes provider data up to `need_row` resident on core `c` (drains
  // channels / stages graph input). Idempotent per (core, provider, row).
  auto ensure_available = [&](int c, const ProviderInfo& info, int need_row) {
    CoreCtx& core = ctx[static_cast<std::size_t>(c)];
    if (info.provider < 0) {
      const int target = std::min(need_row, input_rows);
      if (target > core.input_rows_loaded) {
        const int new_rows = target - core.input_rows_loaded;
        const std::int64_t bytes = new_rows * input_row_bytes;
        const int block = core.planner.alloc(bytes, BlockClass::kInput);
        Operation load;
        load.kind = OpKind::kLoadGlobal;
        load.node = 0;
        load.bytes = bytes;
        core.emit(load);
        core.held.push_back({-1, target, block});
        core.input_rows_loaded = target;
        core.stamp();
      }
      return;
    }
    for (int gid :
         layout.partition_groups[static_cast<std::size_t>(info.provider)]) {
      const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
      if (g.empty()) continue;
      auto it = channels.find({g.owner_core, c});
      if (it == channels.end()) continue;
      ChannelGen& ch = it->second;
      std::size_t target = ch.drained;
      for (std::size_t i = ch.drained; i < ch.packets.size(); ++i) {
        if (ch.packets[i].provider == info.provider &&
            ch.packets[i].row <= need_row) {
          target = i + 1;
        }
      }
      while (ch.drained < target) {
        const PacketGen& pkt = ch.packets[ch.drained];
        const int block = core.planner.alloc(pkt.bytes, BlockClass::kInput);
        if (g.owner_core != c) {
          Operation recv;
          recv.kind = OpKind::kCommRecv;
          recv.node =
              workload.partitions()[static_cast<std::size_t>(pkt.provider)]
                  .node;
          recv.peer = g.owner_core;
          recv.bytes = pkt.bytes;
          core.emit(recv);
        }
        core.held.push_back({pkt.provider, pkt.row, block});
        ++ch.drained;
        core.stamp();
      }
    }
  };

  auto publish_row = [&](const AccumGroup& g, int row, std::int64_t bytes) {
    CoreCtx& owner = ctx[static_cast<std::size_t>(g.owner_core)];
    for (int sub : subscribers[static_cast<std::size_t>(g.partition)]) {
      ChannelGen& ch = channels[{g.owner_core, sub}];
      ch.packets.push_back({g.partition, row, bytes});
      if (sub == g.owner_core) continue;
      Operation send;
      send.kind = OpKind::kCommSend;
      send.node = g.node;
      send.peer = sub;
      send.bytes = bytes;
      owner.emit(send);
    }
  };

  // --- Main emission: partitions in topological order, rows in stream order.
  for (int pi = 0; pi < part_count; ++pi) {
    const NodePartition& p =
        workload.partitions()[static_cast<std::size_t>(pi)];
    const int w_out = p.out_width;
    const auto& group_ids =
        layout.partition_groups[static_cast<std::size_t>(pi)];
    const auto& provider_infos = providers[static_cast<std::size_t>(pi)];

    // Reusable per-member output slots (AG-reuse policy).
    std::map<int, int> member_slot;

    for (int row = 0; row < p.out_height; ++row) {
      std::map<int, RowAcc> row_accs;  // gid -> state

      for (int w = row * w_out; w < (row + 1) * w_out; ++w) {
        const int r = row + 1;
        const int col = w - row * w_out + 1;

        std::vector<ProviderRequirement> needs;
        if (!provider_infos.empty()) {
          needs = trace_requirements(workload, p.node, r, col);
        }

        for (int gid : group_ids) {
          const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
          if (w < g.window_begin || w >= g.window_end) continue;
          RowAcc& acc = row_accs[gid];
          ++acc.windows;

          // Distinct cores participating in this group.
          std::set<int> member_cores;
          for (int member : g.members) {
            member_cores.insert(
                layout.instances[static_cast<std::size_t>(member)].core);
          }

          // Stage inputs + advance retirement floors on every member core.
          for (int member_core : member_cores) {
            CoreCtx& core = ctx[static_cast<std::size_t>(member_core)];
            for (const ProviderRequirement& need : needs) {
              const ProviderInfo* info = nullptr;
              for (const ProviderInfo& cand : provider_infos) {
                if (cand.provider == need.provider) info = &cand;
              }
              PIMCOMP_ASSERT(info != nullptr, "untracked provider");
              const int need_row = need.pos.full ? kRowInf : need.pos.row;
              ensure_available(member_core, *info, need_row);
              if (!info->full) {
                const int floor = need_row - info->span_rows -
                                  retention_margin(info->span_rows);
                auto& f = core.floors[info->provider][pi];
                if (floor > f) {
                  f = floor;
                  retire_packets(member_core, info->provider);
                }
              }
            }
          }

          // MVMs + partial folds.
          for (int member : g.members) {
            const AgInstance& ag =
                layout.instances[static_cast<std::size_t>(member)];
            CoreCtx& core = ctx[static_cast<std::size_t>(ag.core)];
            const std::int64_t partial_bytes =
                static_cast<std::int64_t>(g.cols) * act_bytes;

            if (policy == MemoryPolicy::kAgReuse) {
              if (member_slot.find(member) == member_slot.end()) {
                member_slot[member] =
                    core.planner.alloc(partial_bytes, BlockClass::kPartial);
              }
            } else {
              acc.transients.emplace_back(
                  ag.core, core.planner.alloc(partial_bytes,
                                              BlockClass::kPartial));
            }

            Operation mvm;
            mvm.kind = OpKind::kMvm;
            mvm.node = p.node;
            mvm.ag = member;
            mvm.window = w;
            mvm.xbars = ag.xbars;
            core.emit(mvm);
            core.stamp();

            // Fold the partial into the row buffer: on the owner core for
            // local members, into the member core's row buffer otherwise.
            const std::int64_t row_buffer_bytes =
                static_cast<std::int64_t>(w_out) * g.cols * act_bytes;
            Operation fold;
            fold.kind = OpKind::kVfu;
            fold.node = p.node;
            fold.ag = member;
            fold.elements = g.cols;
            if (ag.core == g.owner_core) {
              core.emit(fold);
              const int before = acc.owner_acc_block;
              acc.owner_acc_block = core.planner.accumulate_into(
                  acc.owner_acc_block, row_buffer_bytes);
              if (acc.owner_acc_block != before) {
                acc.transients.emplace_back(ag.core, acc.owner_acc_block);
              }
              core.stamp();
            } else {
              core.emit(fold);
              auto slot = acc.remote_row_block.find(ag.core);
              if (slot == acc.remote_row_block.end()) {
                acc.remote_row_block[ag.core] = core.planner.alloc(
                    row_buffer_bytes, BlockClass::kAccumulator);
              } else if (policy == MemoryPolicy::kNaive) {
                // Fresh block per fold under naive; retire with the row.
                acc.transients.emplace_back(
                    ag.core, core.planner.alloc(partial_bytes,
                                                BlockClass::kAccumulator));
              }
              core.stamp();
            }
          }
        }
      }

      // Row retirement per group (ascending gid keeps channel FIFOs and
      // the deadlock-freedom ordering argument intact).
      for (int gid : group_ids) {
        auto it = row_accs.find(gid);
        if (it == row_accs.end() || it->second.windows == 0) continue;
        const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
        RowAcc& acc = it->second;
        CoreCtx& owner = ctx[static_cast<std::size_t>(g.owner_core)];
        const std::int64_t row_bytes =
            static_cast<std::int64_t>(acc.windows) * g.cols * act_bytes;

        // Remote member cores ship their row buffers to the owner.
        for (const auto& [member_core, row_block] : acc.remote_row_block) {
          CoreCtx& member = ctx[static_cast<std::size_t>(member_core)];
          Operation send;
          send.kind = OpKind::kCommSend;
          send.node = g.node;
          send.peer = g.owner_core;
          send.bytes = row_bytes;
          send.tag = 1;  // partial-accumulation channel class
          member.emit(send);
          member.planner.force_free(row_block);
          member.stamp();

          Operation recv;
          recv.kind = OpKind::kCommRecv;
          recv.node = g.node;
          recv.peer = member_core;
          recv.bytes = row_bytes;
          recv.tag = 1;
          owner.emit(recv);
          const int recv_block =
              owner.planner.alloc(row_bytes, BlockClass::kPartial);
          Operation add;
          add.kind = OpKind::kVfu;
          add.node = g.node;
          add.elements = static_cast<std::int64_t>(acc.windows) * g.cols;
          owner.emit(add);
          acc.owner_acc_block =
              owner.planner.accumulate_into(acc.owner_acc_block, row_bytes);
          owner.planner.force_free(recv_block);
          owner.stamp();
        }
        if (acc.owner_acc_block < 0) {
          acc.owner_acc_block =
              owner.planner.alloc(row_bytes, BlockClass::kAccumulator);
        }

        // Downstream vector work amortized per (group, row).
        if (vec_per_row_unit[static_cast<std::size_t>(pi)] > 0) {
          Operation vec;
          vec.kind = OpKind::kVfu;
          vec.node = g.node;
          vec.elements = vec_per_row_unit[static_cast<std::size_t>(pi)];
          owner.emit(vec);
        }

        if (has_crossbar_consumer[static_cast<std::size_t>(pi)]) {
          publish_row(g, row, row_bytes);
        } else {
          Operation store;
          store.kind = OpKind::kStoreGlobal;
          store.node = g.node;
          store.bytes = row_bytes;
          owner.emit(store);
        }

        for (const auto& [core_id, block] : acc.transients) {
          ctx[static_cast<std::size_t>(core_id)].planner.force_free(block);
          ctx[static_cast<std::size_t>(core_id)].stamp();
        }
        owner.planner.force_free(acc.owner_acc_block);
        owner.stamp();
      }
    }

    // Node complete: release reusable member slots and lift retirement
    // floors so fully-consumed provider packets retire everywhere.
    for (const auto& [member, block] : member_slot) {
      const AgInstance& ag =
          layout.instances[static_cast<std::size_t>(member)];
      ctx[static_cast<std::size_t>(ag.core)].planner.force_free(block);
      ctx[static_cast<std::size_t>(ag.core)].stamp();
    }
    for (const ProviderInfo& info : provider_infos) {
      for (int host :
           layout.partition_host_cores[static_cast<std::size_t>(pi)]) {
        CoreCtx& core = ctx[static_cast<std::size_t>(host)];
        core.floors[info.provider][pi] = kRowInf;
        retire_packets(host, info.provider);
      }
    }
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

/// LL mode as a pluggable pipeline strategy: the fine-grained inter-layer
/// pipeline dataflow plus the F_LL objective (paper Fig 6).
class LlScheduler : public Scheduler {
 public:
  std::string name() const override { return "ll-dataflow"; }

  Schedule build(const MappingSolution& solution,
                 const CompileOptions& options) const override {
    LlScheduleOptions ll;
    ll.memory_policy = options.memory_policy;
    return schedule_ll(solution, ll);
  }

  double estimate_fitness(const Workload& workload,
                          const MappingSolution& solution,
                          const FitnessParams& params) const override {
    return LLFitnessContext(workload).evaluate(solution, params);
  }
};

}  // namespace

PIMCOMP_REGISTER_SCHEDULER("ll",
                           [] { return std::make_unique<LlScheduler>(); });

}  // namespace pimcomp
