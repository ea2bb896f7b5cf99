// Pinned schedule goldens, HT and LL. A change that only makes a dataflow
// generator faster or simpler must leave every schedule it emits
// bit-identical; these cases pin all of it as one FNV-1a digest per
// schedule: every Operation field of every core's program, each program's
// length, the per-core spill_bytes and peak_local_bytes, total_ops and
// ag_count.
//
// Cases: the five zoo models (input 32; inception-v3 at 96, the smallest it
// accepts) x {ht, ll} x {puma, greedy, ga at population 8 x 4 generations,
// seed 1} x every memory policy, all at P = 20 on a core count fitted with
// 3x headroom. The mapping is computed once per (model, mode, mapper) and
// scheduled under each policy, since no mapper reads the policy.
//
// A failure here means the programs moved. If that was intended (a
// dataflow change, not a refactor), say so in the change and re-pin:
// running this binary with PIMCOMP_PRINT_LL_SCHEDULE_GOLDENS=1 prints the
// current rows in the table's syntax.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "core/compiler.hpp"
#include "graph/zoo/zoo.hpp"
#include "schedule/ht_scheduler.hpp"
#include "schedule/ll_scheduler.hpp"

namespace pimcomp {
namespace {

struct Golden {
  const char* model;
  const char* mode;
  const char* mapper;
  MemoryPolicy policy;
  std::int64_t total_ops;
  std::uint64_t digest;
};

constexpr MemoryPolicy kNaive = MemoryPolicy::kNaive;
constexpr MemoryPolicy kAddReuse = MemoryPolicy::kAddReuse;
constexpr MemoryPolicy kAgReuse = MemoryPolicy::kAgReuse;

const Golden kGoldens[] = {
    {"vgg16", "ht", "puma", kNaive, 32629, 0x35d6db61e8125998ULL},
    {"vgg16", "ht", "puma", kAddReuse, 32629, 0x325d74ecfb5bf7cfULL},
    {"vgg16", "ht", "puma", kAgReuse, 32629, 0x56802f31e9415101ULL},
    {"vgg16", "ht", "greedy", kNaive, 30668, 0x1ed877cce263fcf0ULL},
    {"vgg16", "ht", "greedy", kAddReuse, 30668, 0xf5dc72658cec2d96ULL},
    {"vgg16", "ht", "greedy", kAgReuse, 30668, 0x4980fb38c1130456ULL},
    {"vgg16", "ht", "ga", kNaive, 32629, 0x35d6db61e8125998ULL},
    {"vgg16", "ht", "ga", kAddReuse, 32629, 0x325d74ecfb5bf7cfULL},
    {"vgg16", "ht", "ga", kAgReuse, 32629, 0x56802f31e9415101ULL},
    {"vgg16", "ll", "puma", kNaive, 95232, 0xa8a9342c1764525fULL},
    {"vgg16", "ll", "puma", kAddReuse, 95232, 0x933e99da9893c3c0ULL},
    {"vgg16", "ll", "puma", kAgReuse, 95232, 0x989ccf3324ef1d38ULL},
    {"vgg16", "ll", "greedy", kNaive, 33576, 0x30bc202817b4ca61ULL},
    {"vgg16", "ll", "greedy", kAddReuse, 33576, 0x33ac323b2bce5432ULL},
    {"vgg16", "ll", "greedy", kAgReuse, 33576, 0x7994e101523e16abULL},
    {"vgg16", "ll", "ga", kNaive, 89843, 0x7ccbfc52b67c13e5ULL},
    {"vgg16", "ll", "ga", kAddReuse, 89843, 0xf46be26d030e36a0ULL},
    {"vgg16", "ll", "ga", kAgReuse, 89843, 0xb513bfeda0665a00ULL},
    {"resnet18", "ht", "puma", kNaive, 5354, 0x92a2f6198fb29316ULL},
    {"resnet18", "ht", "puma", kAddReuse, 5354, 0x51e2ed5b8c232abcULL},
    {"resnet18", "ht", "puma", kAgReuse, 5354, 0x75def2e440f101b4ULL},
    {"resnet18", "ht", "greedy", kNaive, 5637, 0x8289875e53222d4bULL},
    {"resnet18", "ht", "greedy", kAddReuse, 5637, 0xefe686edad8972baULL},
    {"resnet18", "ht", "greedy", kAgReuse, 5637, 0xf76d3ebbe9b7753fULL},
    {"resnet18", "ht", "ga", kNaive, 5354, 0x92a2f6198fb29316ULL},
    {"resnet18", "ht", "ga", kAddReuse, 5354, 0x51e2ed5b8c232abcULL},
    {"resnet18", "ht", "ga", kAgReuse, 5354, 0x75def2e440f101b4ULL},
    {"resnet18", "ll", "puma", kNaive, 16771, 0x2d199784a6e2bcf8ULL},
    {"resnet18", "ll", "puma", kAddReuse, 16771, 0x08980aa1d1d79512ULL},
    {"resnet18", "ll", "puma", kAgReuse, 16771, 0x245492d5ddf9d5dbULL},
    {"resnet18", "ll", "greedy", kNaive, 6547, 0x489d049a8c369749ULL},
    {"resnet18", "ll", "greedy", kAddReuse, 6547, 0x9a5b51766ff10edcULL},
    {"resnet18", "ll", "greedy", kAgReuse, 6547, 0xcc8b66ab72b3197eULL},
    {"resnet18", "ll", "ga", kNaive, 16751, 0x3db2c483f32e61bdULL},
    {"resnet18", "ll", "ga", kAddReuse, 16751, 0x8884699d85d344d9ULL},
    {"resnet18", "ll", "ga", kAgReuse, 16751, 0xdba69d11d86a0718ULL},
    {"googlenet", "ht", "puma", kNaive, 4844, 0x9906c52dd58807efULL},
    {"googlenet", "ht", "puma", kAddReuse, 4844, 0x01613f430eace423ULL},
    {"googlenet", "ht", "puma", kAgReuse, 4844, 0xbcf5a8d2dd7223c1ULL},
    {"googlenet", "ht", "greedy", kNaive, 5195, 0x4d2c1be515dc5639ULL},
    {"googlenet", "ht", "greedy", kAddReuse, 5195, 0x681e34a741ab7f78ULL},
    {"googlenet", "ht", "greedy", kAgReuse, 5195, 0x39bb0311365d16e5ULL},
    {"googlenet", "ht", "ga", kNaive, 4844, 0x9906c52dd58807efULL},
    {"googlenet", "ht", "ga", kAddReuse, 4844, 0x01613f430eace423ULL},
    {"googlenet", "ht", "ga", kAgReuse, 4844, 0xbcf5a8d2dd7223c1ULL},
    {"googlenet", "ll", "puma", kNaive, 10228, 0xa9b8adf661e8c14dULL},
    {"googlenet", "ll", "puma", kAddReuse, 10228, 0x9bedeb84163e3b31ULL},
    {"googlenet", "ll", "puma", kAgReuse, 10228, 0xba1eb085d3af615dULL},
    {"googlenet", "ll", "greedy", kNaive, 5979, 0x803cf175d02125a5ULL},
    {"googlenet", "ll", "greedy", kAddReuse, 5979, 0x7df7ee03cec31b15ULL},
    {"googlenet", "ll", "greedy", kAgReuse, 5979, 0x48a854aae86b0415ULL},
    {"googlenet", "ll", "ga", kNaive, 10228, 0xa9b8adf661e8c14dULL},
    {"googlenet", "ll", "ga", kAddReuse, 10228, 0x9bedeb84163e3b31ULL},
    {"googlenet", "ll", "ga", kAgReuse, 10228, 0xba1eb085d3af615dULL},
    {"inception-v3", "ht", "puma", kNaive, 63099, 0x14ed4dfd67497448ULL},
    {"inception-v3", "ht", "puma", kAddReuse, 63099, 0x561f4d755c59d1faULL},
    {"inception-v3", "ht", "puma", kAgReuse, 63099, 0x3f7ab52ec8f22287ULL},
    {"inception-v3", "ht", "greedy", kNaive, 67203, 0xb362d63be591a5afULL},
    {"inception-v3", "ht", "greedy", kAddReuse, 67203, 0x62cadfbc148c520dULL},
    {"inception-v3", "ht", "greedy", kAgReuse, 67203, 0x4297655e60b0fc11ULL},
    {"inception-v3", "ht", "ga", kNaive, 63099, 0x14ed4dfd67497448ULL},
    {"inception-v3", "ht", "ga", kAddReuse, 63099, 0x561f4d755c59d1faULL},
    {"inception-v3", "ht", "ga", kAgReuse, 63099, 0x3f7ab52ec8f22287ULL},
    {"inception-v3", "ll", "puma", kNaive, 136043, 0x39acd289396aadfcULL},
    {"inception-v3", "ll", "puma", kAddReuse, 136043, 0x06c5ce6b5f814022ULL},
    {"inception-v3", "ll", "puma", kAgReuse, 136043, 0xdfbe448945906303ULL},
    {"inception-v3", "ll", "greedy", kNaive, 70448, 0x349db53eeada44adULL},
    {"inception-v3", "ll", "greedy", kAddReuse, 70448, 0x12a3d757cb745ca0ULL},
    {"inception-v3", "ll", "greedy", kAgReuse, 70448, 0x66709a9d55bfdd76ULL},
    {"inception-v3", "ll", "ga", kNaive, 136081, 0xc189ae733da8be04ULL},
    {"inception-v3", "ll", "ga", kAddReuse, 136081, 0xadc9cc8e185f7efcULL},
    {"inception-v3", "ll", "ga", kAgReuse, 136081, 0xdd126664f1ee39dbULL},
    {"squeezenet", "ht", "puma", kNaive, 1889, 0x539a50a38579b97bULL},
    {"squeezenet", "ht", "puma", kAddReuse, 1889, 0x50b133d2465af15dULL},
    {"squeezenet", "ht", "puma", kAgReuse, 1889, 0xd893a5342a375d5eULL},
    {"squeezenet", "ht", "greedy", kNaive, 2157, 0x2be2afa9777e7db9ULL},
    {"squeezenet", "ht", "greedy", kAddReuse, 2157, 0x0cfd916d521772c5ULL},
    {"squeezenet", "ht", "greedy", kAgReuse, 2157, 0x6bcf0e563ae3b208ULL},
    {"squeezenet", "ht", "ga", kNaive, 1889, 0x539a50a38579b97bULL},
    {"squeezenet", "ht", "ga", kAddReuse, 1889, 0x50b133d2465af15dULL},
    {"squeezenet", "ht", "ga", kAgReuse, 1889, 0xd893a5342a375d5eULL},
    {"squeezenet", "ll", "puma", kNaive, 3043, 0xaf4111ff5b276e0fULL},
    {"squeezenet", "ll", "puma", kAddReuse, 3043, 0x557140dc06ac7fa7ULL},
    {"squeezenet", "ll", "puma", kAgReuse, 3043, 0x6107843fb57892cfULL},
    {"squeezenet", "ll", "greedy", kNaive, 1704, 0xfd2027c4549a5f81ULL},
    {"squeezenet", "ll", "greedy", kAddReuse, 1704, 0xbbd36258572aeb88ULL},
    {"squeezenet", "ll", "greedy", kAgReuse, 1704, 0x8a07cf0b9f478faeULL},
    {"squeezenet", "ll", "ga", kNaive, 3043, 0xaf4111ff5b276e0fULL},
    {"squeezenet", "ll", "ga", kAddReuse, 3043, 0x557140dc06ac7fa7ULL},
    {"squeezenet", "ll", "ga", kAgReuse, 3043, 0x6107843fb57892cfULL},
};

class Fnv1a {
 public:
  void add(std::int64_t value) {
    const auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (bits >> (8 * byte)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t schedule_digest(const Schedule& s) {
  Fnv1a h;
  h.add(s.ag_count);
  h.add(s.total_ops);
  h.add(static_cast<std::int64_t>(s.programs.size()));
  for (const auto& program : s.programs) {
    h.add(static_cast<std::int64_t>(program.size()));
    for (const Operation& op : program) {
      h.add(static_cast<std::int64_t>(op.kind));
      h.add(op.node);
      h.add(op.ag);
      h.add(op.window);
      h.add(op.bytes);
      h.add(op.elements);
      h.add(op.peer);
      h.add(op.tag);
      h.add(op.xbars);
      h.add(op.local_usage);
    }
  }
  h.add(static_cast<std::int64_t>(s.spill_bytes.size()));
  for (std::int64_t b : s.spill_bytes) h.add(b);
  h.add(static_cast<std::int64_t>(s.peak_local_bytes.size()));
  for (std::int64_t b : s.peak_local_bytes) h.add(b);
  return h.value();
}

const char* policy_name(MemoryPolicy policy) {
  switch (policy) {
    case kNaive: return "kNaive";
    case kAddReuse: return "kAddReuse";
    case kAgReuse: return "kAgReuse";
  }
  return "?";
}

TEST(ScheduleGoldens, EveryScheduleMatchesThePinnedDigest) {
  const bool print =
      std::getenv("PIMCOMP_PRINT_LL_SCHEDULE_GOLDENS") != nullptr;
  if (!print) {
    ASSERT_EQ(std::size(kGoldens), 90U);
  }
  std::size_t next = 0;
  for (const char* name :
       {"vgg16", "resnet18", "googlenet", "inception-v3", "squeezenet"}) {
    const std::string model = name;
    Graph graph = zoo::build(model, model == "inception-v3" ? 96 : 32);
    const HardwareConfig hw =
        fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
    const Compiler compiler(std::move(graph), hw);
    for (const char* mode : {"ht", "ll"}) {
      const bool ht = std::string(mode) == "ht";
      for (const char* mapper : {"puma", "greedy", "ga"}) {
        CompileOptions options;
        options.mode =
            ht ? PipelineMode::kHighThroughput : PipelineMode::kLowLatency;
        options.mapper = mapper;
        options.parallelism_degree = 20;
        options.ga.population = 8;
        options.ga.generations = 4;
        options.seed = 1;
        const CompileResult result = compiler.compile(options);
        for (MemoryPolicy policy : {kNaive, kAddReuse, kAgReuse}) {
          SCOPED_TRACE(model + " " + mode + " " + mapper + " " +
                       to_string(policy));
          const Schedule s =
              ht ? schedule_ht(result.solution,
                               {policy, options.ht_flush_windows})
                 : schedule_ll(result.solution, {policy});
          const std::uint64_t digest = schedule_digest(s);
          if (policy == options.memory_policy) {
            EXPECT_EQ(digest, schedule_digest(result.schedule));
          }
          if (print) {
            std::printf(
                "    {\"%s\", \"%s\", \"%s\", %s, %lld, 0x%016llxULL},\n",
                model.c_str(), mode, mapper, policy_name(policy),
                static_cast<long long>(s.total_ops),
                static_cast<unsigned long long>(digest));
            continue;
          }
          ASSERT_LT(next, std::size(kGoldens));
          const Golden& g = kGoldens[next++];
          ASSERT_EQ(model, g.model);
          ASSERT_STREQ(mode, g.mode);
          ASSERT_STREQ(mapper, g.mapper);
          ASSERT_EQ(policy, g.policy);
          EXPECT_EQ(s.total_ops, g.total_ops);
          EXPECT_EQ(digest, g.digest);
        }
      }
    }
  }
}

}  // namespace
}  // namespace pimcomp
