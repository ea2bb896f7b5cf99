#include "schedule/ll_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
// pimcomp-layer-exempt: self-registration into the scheduler registry —
// the plugin seam every strategy TU uses, not a dependency on core logic.
#include "core/pipeline.hpp"
#include "mapping/fitness.hpp"
#include "schedule/ag_layout.hpp"
#include "schedule/core_emitter.hpp"
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

/// Generation-time channel bookkeeping: the sending core, packets sent, in
/// order, and how far the consumer core has drained.
struct ChannelGen {
  int src = -1;
  std::vector<PacketGen> packets;
  std::size_t drained = 0;
};

/// A packet resident in a consumer core's scratchpad awaiting retirement.
struct HeldPacket {
  int provider = -1;
  int row = 0;
  int block = -1;
};

/// One provider's data flowing into one core: the inbound channels that
/// carry it (first-occurrence order over the provider's groups), the highest
/// row drained for it so far, and each consumer partition's retirement floor.
struct Inlet {
  int provider = -1;
  int drained_row = std::numeric_limits<int>::min();
  std::vector<int> channels;
  std::vector<std::pair<int, int>> floors;  ///< (consumer, floor)
};

/// A core's emitter plus the packets and inlets LL tracks on it.
struct CoreCtx : CoreEmitter {
  std::vector<HeldPacket> held;  ///< live packets, in arrival order
  std::vector<Inlet> inlets;
  int input_rows_loaded = 0;

  CoreCtx(MemoryPolicy policy, std::int64_t capacity)
      : CoreEmitter(policy, capacity, /*spill_on_overflow=*/false) {}
};

/// Per-(group, row) accumulation state while the row is in flight.
struct RowAcc {
  int windows = 0;           ///< windows of this group in the row
  int owner_acc_block = -1;  ///< accumulator on the owner core
  std::vector<int> remote;   ///< per AccumGroup::cores: row buffer or -1
  std::vector<std::pair<int, int>> transients;  ///< (core, block) to retire
};

/// Position of `value` in the ascending vector `sorted`, which holds it.
int position_of(const std::vector<int>& sorted, int value) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  PIMCOMP_ASSERT(it != sorted.end() && *it == value, "missing index entry");
  return static_cast<int>(it - sorted.begin());
}

}  // namespace

// The indexes below rest on three invariants of the emission order:
//  1. Partitions are emitted in index order and every provider's index is
//     lower than its consumer's, so a provider is fully emitted before any
//     consumer drains it: its channels and packets no longer change.
//  2. Per channel, packets arrive grouped by provider in index order, and a
//     provider's rows arrive in ascending order (rows are the outer loop).
//  3. A core's drained row per provider only rises, so a need at or below
//     it is already resident (or was drained and retired).
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

  // --- Dense channel ids: one per distinct (owner, subscriber) pair --------
  // out_channels[gid][i]: the channel from group gid's owner to the i-th
  // subscriber of its partition.
  std::vector<std::vector<int>> out_channels(layout.groups.size());
  std::vector<ChannelGen> channels;
  std::vector<int> channel_to(static_cast<std::size_t>(cores), -1);
  for (int owner = 0; owner < cores; ++owner) {
    for (int gid : layout.core_groups[static_cast<std::size_t>(owner)]) {
      const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
      if (g.owner_core != owner) continue;
      for (int sub : subscribers[static_cast<std::size_t>(g.partition)]) {
        int& id = channel_to[static_cast<std::size_t>(sub)];
        if (id < 0 || channels[static_cast<std::size_t>(id)].src != owner) {
          id = static_cast<int>(channels.size());
          channels.emplace_back().src = owner;
        }
        out_channels[static_cast<std::size_t>(gid)].push_back(id);
      }
    }
  }
  std::vector<int> channel_seen(channels.size(), -1);
  int inlets_built = 0;

  const std::int64_t input_row_bytes =
      static_cast<std::int64_t>(graph.node(0).output_shape.width) *
      graph.node(0).output_shape.channels * act_bytes;
  const int input_rows = graph.node(0).output_shape.height;

  // Reuse-less policies hold one extra receptive span before retiring
  // consumed rows (coarse line buffering); AG-reuse retires exactly.
  auto retention_margin = [&](int span_rows) {
    return policy == MemoryPolicy::kAgReuse ? 0 : span_rows;
  };

  // The inlet of `provider` on core `c`, built on first use by consumer
  // partition `consumer`.
  auto inlet_of = [&](int c, int provider, int consumer) {
    auto& inlets = ctx[static_cast<std::size_t>(c)].inlets;
    for (std::size_t i = 0; i < inlets.size(); ++i) {
      if (inlets[i].provider == provider) return static_cast<int>(i);
    }
    Inlet& inlet = inlets.emplace_back();
    inlet.provider = provider;
    if (provider >= 0) {
      PIMCOMP_ASSERT(provider < consumer,
                     "a provider must be emitted before its consumers");
      const int sub = position_of(
          subscribers[static_cast<std::size_t>(provider)], c);
      for (int gid :
           layout.partition_groups[static_cast<std::size_t>(provider)]) {
        if (layout.groups[static_cast<std::size_t>(gid)].empty()) continue;
        const int ch = out_channels[static_cast<std::size_t>(gid)]
                                   [static_cast<std::size_t>(sub)];
        if (channel_seen[static_cast<std::size_t>(ch)] != inlets_built) {
          channel_seen[static_cast<std::size_t>(ch)] = inlets_built;
          inlet.channels.push_back(ch);
        }
      }
      ++inlets_built;
    }
    return static_cast<int>(inlets.size()) - 1;
  };

  auto retire_packets = [&](int c, const Inlet& inlet) {
    CoreCtx& core = ctx[static_cast<std::size_t>(c)];
    int floor = kRowInf;
    for (const auto& [consumer, f] : inlet.floors) floor = std::min(floor, f);
    if (floor <= 0) return;
    auto kept = core.held.begin();
    for (const HeldPacket& held : core.held) {
      if (held.provider == inlet.provider && held.row < floor) {
        core.planner.force_free(held.block);
      } else {
        *kept++ = held;
      }
    }
    if (kept == core.held.end()) return;
    core.held.erase(kept, core.held.end());
    core.stamp();
  };

  // Makes provider data up to `need_row` resident on core `c` (drains
  // channels / stages graph input). Idempotent per (core, provider, row).
  auto ensure_available = [&](int c, Inlet& inlet, int need_row) {
    CoreCtx& core = ctx[static_cast<std::size_t>(c)];
    if (inlet.provider < 0) {
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
    if (need_row <= inlet.drained_row) return;  // invariant 3
    inlet.drained_row = need_row;
    for (int id : inlet.channels) {
      ChannelGen& ch = channels[static_cast<std::size_t>(id)];
      // Drain through this provider's last packet at or below `need_row`,
      // taking any earlier provider's packets ahead of it in FIFO order
      // (invariant 2 bounds the scan).
      std::size_t target = ch.drained;
      for (std::size_t i = ch.drained; i < ch.packets.size(); ++i) {
        const PacketGen& pkt = ch.packets[i];
        if (pkt.provider < inlet.provider) continue;
        if (pkt.provider > inlet.provider || pkt.row > need_row) break;
        target = i + 1;
      }
      while (ch.drained < target) {
        const PacketGen& pkt = ch.packets[ch.drained];
        const int block = core.planner.alloc(pkt.bytes, BlockClass::kInput);
        if (ch.src != c) {
          Operation recv;
          recv.kind = OpKind::kCommRecv;
          recv.node =
              workload.partitions()[static_cast<std::size_t>(pkt.provider)]
                  .node;
          recv.peer = ch.src;
          recv.bytes = pkt.bytes;
          core.emit(recv);
        }
        core.held.push_back({pkt.provider, pkt.row, block});
        ++ch.drained;
        core.stamp();
      }
    }
  };

  auto publish_row = [&](int gid, int row, std::int64_t bytes) {
    const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
    CoreCtx& owner = ctx[static_cast<std::size_t>(g.owner_core)];
    const auto& subs = subscribers[static_cast<std::size_t>(g.partition)];
    const auto& outs = out_channels[static_cast<std::size_t>(gid)];
    for (std::size_t i = 0; i < subs.size(); ++i) {
      ChannelGen& ch = channels[static_cast<std::size_t>(outs[i])];
      PIMCOMP_ASSERT(ch.packets.empty() ||
                         ch.packets.back().provider < g.partition ||
                         (ch.packets.back().provider == g.partition &&
                          ch.packets.back().row <= row),
                     "channel packets out of stream order");
      ch.packets.push_back({g.partition, row, bytes});
      if (subs[i] == g.owner_core) continue;
      Operation send;
      send.kind = OpKind::kCommSend;
      send.node = g.node;
      send.peer = subs[i];
      send.bytes = bytes;
      owner.emit(send);
    }
  };

  struct InletRef {
    int inlet = -1;
    int floor = -1;  ///< this consumer's slot in Inlet::floors
  };
  std::vector<InletRef> refs;
  struct RowNeed {
    int provider_slot = -1;
    int row = 0;
  };
  std::vector<RowNeed> needs;
  std::vector<std::vector<int>> row_groups;
  std::vector<RowAcc> row_accs;
  std::vector<int> member_slot(layout.instances.size(), -1);
  std::vector<int> slotted;
  std::vector<int> host_slot(static_cast<std::size_t>(cores), -1);

  // --- Main emission: partitions in topological order, rows in stream order.
  for (int pi = 0; pi < part_count; ++pi) {
    const NodePartition& p =
        workload.partitions()[static_cast<std::size_t>(pi)];
    const int w_out = p.out_width;
    const auto& group_ids =
        layout.partition_groups[static_cast<std::size_t>(pi)];
    const auto& hosts =
        layout.partition_host_cores[static_cast<std::size_t>(pi)];
    const auto& provider_infos = providers[static_cast<std::size_t>(pi)];
    const std::size_t nprov = provider_infos.size();

    // refs[host_slot[core] * nprov + k]: provider k's inlet on that host.
    refs.assign(hosts.size() * nprov, {});
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      host_slot[static_cast<std::size_t>(hosts[h])] = static_cast<int>(h);
      for (std::size_t k = 0; k < nprov; ++k) {
        const int id = inlet_of(hosts[h], provider_infos[k].provider, pi);
        Inlet& inlet = ctx[static_cast<std::size_t>(hosts[h])]
                           .inlets[static_cast<std::size_t>(id)];
        inlet.floors.emplace_back(pi, 0);
        refs[h * nprov + k] = {id, static_cast<int>(inlet.floors.size()) - 1};
      }
    }

    // The groups with windows in each row, in group order.
    row_groups.assign(static_cast<std::size_t>(p.out_height), {});
    for (int gid : group_ids) {
      const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
      if (g.empty() || w_out <= 0) continue;
      const int last = std::min(p.out_height - 1, (g.window_end - 1) / w_out);
      for (int row = g.window_begin / w_out; row <= last; ++row) {
        row_groups[static_cast<std::size_t>(row)].push_back(gid);
      }
    }

    for (int row = 0; row < p.out_height; ++row) {
      const auto& active = row_groups[static_cast<std::size_t>(row)];
      // A window's requirement rows depend on its row, not its column.
      needs.clear();
      if (nprov > 0 && !active.empty()) {
        for (const ProviderRequirement& req :
             trace_requirements(workload, p.node, row + 1, 1)) {
          RowNeed need;
          for (std::size_t k = 0; k < nprov; ++k) {
            if (provider_infos[k].provider == req.provider) {
              need.provider_slot = static_cast<int>(k);
            }
          }
          PIMCOMP_ASSERT(need.provider_slot >= 0, "untracked provider");
          need.row = req.pos.full ? kRowInf : req.pos.row;
          needs.push_back(need);
        }
      }
      if (row_accs.size() < active.size()) row_accs.resize(active.size());
      for (std::size_t a = 0; a < active.size(); ++a) {
        RowAcc& acc = row_accs[a];
        acc.windows = 0;
        acc.owner_acc_block = -1;
        acc.remote.assign(
            layout.groups[static_cast<std::size_t>(active[a])].cores.size(),
            -1);
        acc.transients.clear();
      }

      for (int w = row * w_out; w < (row + 1) * w_out; ++w) {
        for (std::size_t a = 0; a < active.size(); ++a) {
          const int gid = active[a];
          const AccumGroup& g = layout.groups[static_cast<std::size_t>(gid)];
          if (w < g.window_begin || w >= g.window_end) continue;
          RowAcc& acc = row_accs[a];
          ++acc.windows;

          // Stage inputs + advance retirement floors on every member core.
          for (int member_core : g.cores) {
            CoreCtx& core = ctx[static_cast<std::size_t>(member_core)];
            const std::size_t base =
                static_cast<std::size_t>(
                    host_slot[static_cast<std::size_t>(member_core)]) *
                nprov;
            for (const RowNeed& need : needs) {
              const ProviderInfo& info =
                  provider_infos[static_cast<std::size_t>(need.provider_slot)];
              const InletRef ref =
                  refs[base + static_cast<std::size_t>(need.provider_slot)];
              Inlet& inlet = core.inlets[static_cast<std::size_t>(ref.inlet)];
              ensure_available(member_core, inlet, need.row);
              if (!info.full) {
                const int floor = need.row - info.span_rows -
                                  retention_margin(info.span_rows);
                int& f = inlet.floors[static_cast<std::size_t>(ref.floor)]
                             .second;
                if (floor > f) {
                  f = floor;
                  retire_packets(member_core, inlet);
                }
              }
            }
          }

          // MVMs + partial folds.
          for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
            const int member = g.members[mi];
            const AgInstance& ag =
                layout.instances[static_cast<std::size_t>(member)];
            CoreCtx& core = ctx[static_cast<std::size_t>(ag.core)];
            const std::int64_t partial_bytes =
                static_cast<std::int64_t>(g.cols) * act_bytes;

            if (policy == MemoryPolicy::kAgReuse) {
              int& slot = member_slot[static_cast<std::size_t>(member)];
              if (slot < 0) {
                slot = core.planner.alloc(partial_bytes, BlockClass::kPartial);
                slotted.push_back(member);
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
              int& slot =
                  acc.remote[static_cast<std::size_t>(g.member_pos[mi])];
              if (slot < 0) {
                slot = core.planner.alloc(row_buffer_bytes,
                                          BlockClass::kAccumulator);
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
      for (std::size_t a = 0; a < active.size(); ++a) {
        const auto gid = static_cast<std::size_t>(active[a]);
        const AccumGroup& g = layout.groups[gid];
        RowAcc& acc = row_accs[a];
        CoreCtx& owner = ctx[static_cast<std::size_t>(g.owner_core)];
        const std::int64_t row_bytes =
            static_cast<std::int64_t>(acc.windows) * g.cols * act_bytes;

        // Remote member cores ship their row buffers to the owner.
        for (std::size_t m = 0; m < g.cores.size(); ++m) {
          const int row_block = acc.remote[m];
          if (row_block < 0) continue;
          const int member_core = g.cores[m];
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
          publish_row(active[a], row, row_bytes);
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
    for (int member : slotted) {
      const AgInstance& ag =
          layout.instances[static_cast<std::size_t>(member)];
      int& slot = member_slot[static_cast<std::size_t>(member)];
      ctx[static_cast<std::size_t>(ag.core)].planner.force_free(slot);
      ctx[static_cast<std::size_t>(ag.core)].stamp();
      slot = -1;
    }
    slotted.clear();
    for (std::size_t k = 0; k < nprov; ++k) {
      for (std::size_t h = 0; h < hosts.size(); ++h) {
        const InletRef ref = refs[h * nprov + k];
        Inlet& inlet = ctx[static_cast<std::size_t>(hosts[h])]
                           .inlets[static_cast<std::size_t>(ref.inlet)];
        inlet.floors[static_cast<std::size_t>(ref.floor)].second = kRowInf;
        retire_packets(hosts[h], inlet);
      }
    }
  }

  return assemble_schedule(ctx, static_cast<int>(layout.instances.size()));
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
