// Pinned LL schedule goldens. A change that only makes the LL dataflow
// generator faster must leave every schedule it emits bit-identical; these
// cases pin all of it as one FNV-1a digest per schedule: every Operation
// field of every core's program, each program's length, the per-core
// spill_bytes and peak_local_bytes, total_ops and ag_count.
//
// Cases: the five zoo models (input 32; inception-v3 at 96, the smallest it
// accepts) x {puma, greedy, ga at population 8 x 4 generations, seed 1} x
// every memory policy, all at P = 20 on a core count fitted with 3x headroom.
// The mapping is computed once per (model, mapper) and scheduled under each
// policy, since no mapper reads the policy.
//
// A failure here means the LL programs moved. If that was intended (a
// dataflow change, not a speed-up), say so in the change and re-pin: running
// this binary with PIMCOMP_PRINT_LL_SCHEDULE_GOLDENS=1 prints the current
// rows in the table's syntax.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "core/compiler.hpp"
#include "graph/zoo/zoo.hpp"
#include "schedule/ll_scheduler.hpp"

namespace pimcomp {
namespace {

struct Golden {
  const char* model;
  const char* mapper;
  MemoryPolicy policy;
  std::int64_t total_ops;
  std::uint64_t digest;
};

constexpr MemoryPolicy kNaive = MemoryPolicy::kNaive;
constexpr MemoryPolicy kAddReuse = MemoryPolicy::kAddReuse;
constexpr MemoryPolicy kAgReuse = MemoryPolicy::kAgReuse;

const Golden kGoldens[] = {
    {"vgg16", "puma", kNaive, 95232, 0xa8a9342c1764525fULL},
    {"vgg16", "puma", kAddReuse, 95232, 0x933e99da9893c3c0ULL},
    {"vgg16", "puma", kAgReuse, 95232, 0x989ccf3324ef1d38ULL},
    {"vgg16", "greedy", kNaive, 33576, 0x30bc202817b4ca61ULL},
    {"vgg16", "greedy", kAddReuse, 33576, 0x33ac323b2bce5432ULL},
    {"vgg16", "greedy", kAgReuse, 33576, 0x7994e101523e16abULL},
    {"vgg16", "ga", kNaive, 89843, 0x7ccbfc52b67c13e5ULL},
    {"vgg16", "ga", kAddReuse, 89843, 0xf46be26d030e36a0ULL},
    {"vgg16", "ga", kAgReuse, 89843, 0xb513bfeda0665a00ULL},
    {"resnet18", "puma", kNaive, 16771, 0x2d199784a6e2bcf8ULL},
    {"resnet18", "puma", kAddReuse, 16771, 0x08980aa1d1d79512ULL},
    {"resnet18", "puma", kAgReuse, 16771, 0x245492d5ddf9d5dbULL},
    {"resnet18", "greedy", kNaive, 6547, 0x489d049a8c369749ULL},
    {"resnet18", "greedy", kAddReuse, 6547, 0x9a5b51766ff10edcULL},
    {"resnet18", "greedy", kAgReuse, 6547, 0xcc8b66ab72b3197eULL},
    {"resnet18", "ga", kNaive, 16751, 0x3db2c483f32e61bdULL},
    {"resnet18", "ga", kAddReuse, 16751, 0x8884699d85d344d9ULL},
    {"resnet18", "ga", kAgReuse, 16751, 0xdba69d11d86a0718ULL},
    {"googlenet", "puma", kNaive, 10228, 0xa9b8adf661e8c14dULL},
    {"googlenet", "puma", kAddReuse, 10228, 0x9bedeb84163e3b31ULL},
    {"googlenet", "puma", kAgReuse, 10228, 0xba1eb085d3af615dULL},
    {"googlenet", "greedy", kNaive, 5979, 0x803cf175d02125a5ULL},
    {"googlenet", "greedy", kAddReuse, 5979, 0x7df7ee03cec31b15ULL},
    {"googlenet", "greedy", kAgReuse, 5979, 0x48a854aae86b0415ULL},
    {"googlenet", "ga", kNaive, 10228, 0xa9b8adf661e8c14dULL},
    {"googlenet", "ga", kAddReuse, 10228, 0x9bedeb84163e3b31ULL},
    {"googlenet", "ga", kAgReuse, 10228, 0xba1eb085d3af615dULL},
    {"inception-v3", "puma", kNaive, 136043, 0x39acd289396aadfcULL},
    {"inception-v3", "puma", kAddReuse, 136043, 0x06c5ce6b5f814022ULL},
    {"inception-v3", "puma", kAgReuse, 136043, 0xdfbe448945906303ULL},
    {"inception-v3", "greedy", kNaive, 70448, 0x349db53eeada44adULL},
    {"inception-v3", "greedy", kAddReuse, 70448, 0x12a3d757cb745ca0ULL},
    {"inception-v3", "greedy", kAgReuse, 70448, 0x66709a9d55bfdd76ULL},
    {"inception-v3", "ga", kNaive, 136081, 0xc189ae733da8be04ULL},
    {"inception-v3", "ga", kAddReuse, 136081, 0xadc9cc8e185f7efcULL},
    {"inception-v3", "ga", kAgReuse, 136081, 0xdd126664f1ee39dbULL},
    {"squeezenet", "puma", kNaive, 3043, 0xaf4111ff5b276e0fULL},
    {"squeezenet", "puma", kAddReuse, 3043, 0x557140dc06ac7fa7ULL},
    {"squeezenet", "puma", kAgReuse, 3043, 0x6107843fb57892cfULL},
    {"squeezenet", "greedy", kNaive, 1704, 0xfd2027c4549a5f81ULL},
    {"squeezenet", "greedy", kAddReuse, 1704, 0xbbd36258572aeb88ULL},
    {"squeezenet", "greedy", kAgReuse, 1704, 0x8a07cf0b9f478faeULL},
    {"squeezenet", "ga", kNaive, 3043, 0xaf4111ff5b276e0fULL},
    {"squeezenet", "ga", kAddReuse, 3043, 0x557140dc06ac7fa7ULL},
    {"squeezenet", "ga", kAgReuse, 3043, 0x6107843fb57892cfULL},
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

TEST(LlScheduleGoldens, EveryScheduleMatchesThePinnedDigest) {
  const bool print =
      std::getenv("PIMCOMP_PRINT_LL_SCHEDULE_GOLDENS") != nullptr;
  if (!print) {
    ASSERT_EQ(std::size(kGoldens), 45U);
  }
  std::size_t next = 0;
  for (const char* name :
       {"vgg16", "resnet18", "googlenet", "inception-v3", "squeezenet"}) {
    const std::string model = name;
    Graph graph = zoo::build(model, model == "inception-v3" ? 96 : 32);
    const HardwareConfig hw =
        fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
    const Compiler compiler(std::move(graph), hw);
    for (const char* mapper : {"puma", "greedy", "ga"}) {
      CompileOptions options;
      options.mode = PipelineMode::kLowLatency;
      options.mapper = mapper;
      options.parallelism_degree = 20;
      options.ga.population = 8;
      options.ga.generations = 4;
      options.seed = 1;
      const CompileResult result = compiler.compile(options);
      for (MemoryPolicy policy : {kNaive, kAddReuse, kAgReuse}) {
        SCOPED_TRACE(model + " " + mapper + " " + to_string(policy));
        const Schedule s = schedule_ll(result.solution, {policy});
        const std::uint64_t digest = schedule_digest(s);
        if (policy == options.memory_policy) {
          EXPECT_EQ(digest, schedule_digest(result.schedule));
        }
        if (print) {
          std::printf("    {\"%s\", \"%s\", %s, %lld, 0x%016llxULL},\n",
                      model.c_str(), mapper, policy_name(policy),
                      static_cast<long long>(s.total_ops),
                      static_cast<unsigned long long>(digest));
          continue;
        }
        ASSERT_LT(next, std::size(kGoldens));
        const Golden& g = kGoldens[next++];
        ASSERT_EQ(model, g.model);
        ASSERT_STREQ(mapper, g.mapper);
        ASSERT_EQ(policy, g.policy);
        EXPECT_EQ(s.total_ops, g.total_ops);
        EXPECT_EQ(digest, g.digest);
      }
    }
  }
}

}  // namespace
}  // namespace pimcomp
