// Deterministic mutation fuzzing of the JSON parser, the one entry point of
// every untrusted input (request lines, peer cache_put frames, disk
// artifacts, graph files). A fixed seed and iteration count make it an
// ordinary ctest, so the sanitizer builds cover it. For every input,
// `parse` must either throw JsonError or return a value whose compact dump
// re-parses to the same bytes.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/artifact.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "core/session.hpp"
#include "graph/serialize.hpp"
#include "graph/zoo/zoo.hpp"
#include "serve/protocol.hpp"

namespace pimcomp {
namespace {

constexpr std::uint64_t kSeed = 0x5EED'1A50'F022'0001ull;
constexpr int kIterations = 4000;

/// The inputs mutations start from: one of each untrusted document kind,
/// plus malformed cases the grammar must reject.
const std::vector<std::string>& seed_corpus() {
  static const std::vector<std::string> corpus = [] {
    Graph graph = zoo::squeezenet(32);
    graph.finalize();
    const Json graph_json = graph_to_json(graph);
    const HardwareConfig hw =
        fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
    CompileOptions options;
    options.mode = PipelineMode::kLowLatency;
    options.parallelism_degree = 4;
    options.ga.population = 4;
    options.ga.generations = 2;
    CompilerSession session(std::move(graph), hw);
    const Json artifact = compile_result_to_artifact(
        session.compile(options), session.fingerprint(), 0x0123456789abcdefull);

    serve::CompileRequest request;
    request.id = 7;
    request.model = "resnet18";
    request.input_size = 32;
    request.auth = "token";
    serve::ScenarioSpec spec;
    spec.label = "ll-p4";
    spec.options = options;
    request.scenarios.push_back(std::move(spec));

    serve::CachePutRequest put;
    put.id = 9;
    put.key = 0x0123456789abcdefull;
    put.artifact = artifact;

    return std::vector<std::string>{
        artifact.dump(-1),
        serve::to_json(request).dump(-1),
        serve::to_json(put).dump(-1),
        graph_json.dump(2),
        "[1-2]", "1.2.3", "+5", "01", "1e", ".5", "-", "[1e400]",
        "{\"a\":-0,\"b\":1E5,\"c\":2.5e-3,\"d\":\"\\u00e9\\n\"}",
        std::string(600, '[') + std::string(600, ']'),
    };
  }();
  return corpus;
}

/// Bytes mutations write: structure, number and literal characters, and a
/// few that must never be accepted raw outside strings.
constexpr char kAlphabet[] = "[]{}\",:-+.0123456789eE \t\n\\/tfnu\x01\x7f\xc3";

std::string mutate(std::string text, Rng& rng,
                   const std::vector<std::string>& corpus) {
  const int steps = 1 + rng.uniform_int(4);
  for (int step = 0; step < steps; ++step) {
    const int size = static_cast<int>(text.size());
    const int at = rng.uniform_int(size + 1);
    const auto pos = static_cast<std::size_t>(at);
    const auto span = [&](int max) {
      return static_cast<std::size_t>(1 + rng.uniform_int(max));
    };
    switch (rng.uniform_int(7)) {
      case 0:
        if (at < size) {
          text[pos] = kAlphabet[rng.uniform_int(sizeof(kAlphabet) - 1)];
        }
        break;
      case 1:
        text.insert(pos, 1, kAlphabet[rng.uniform_int(sizeof(kAlphabet) - 1)]);
        break;
      case 2:
        if (at < size) text.erase(pos, span(8));
        break;
      case 3:
        if (at < size) text.insert(pos, text.substr(pos, span(64)));
        break;
      case 4:
        text.resize(pos);
        break;
      case 5: {
        const std::string& other = corpus[static_cast<std::size_t>(
            rng.uniform_int(static_cast<int>(corpus.size())))];
        const auto from = static_cast<std::size_t>(
            rng.uniform_int(static_cast<int>(other.size()) + 1));
        text.insert(pos, other.substr(from, span(256)));
        break;
      }
      default:
        // Nesting on either side of the depth cap.
        text.insert(pos, span(Json::kMaxDepth + 64),
                    rng.bernoulli(0.5) ? '[' : '{');
        break;
    }
  }
  return text;
}

/// Parse must throw JsonError or round-trip byte-stably; returns whether
/// `text` was accepted.
bool check_one(const std::string& text) {
  Json value;
  try {
    value = Json::parse(text);
  } catch (const JsonError&) {
    return false;
  }
  const std::string dumped = value.dump(-1);
  std::string again;
  try {
    again = Json::parse(dumped).dump(-1);
  } catch (const JsonError& e) {
    ADD_FAILURE() << "dump of an accepted input does not re-parse: "
                  << e.what();
    return true;
  }
  EXPECT_EQ(again, dumped) << "dump is not a fixpoint";
  return true;
}

TEST(JsonFuzz, SeedCorpusIsAcceptedOrRejectedAsDocumented) {
  const std::vector<std::string>& corpus = seed_corpus();
  // The four real documents parse and their compact dumps are fixpoints.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(check_one(corpus[i])) << "seed " << i;
  }
  EXPECT_EQ(Json::parse(corpus[0]).dump(-1), corpus[0]);
  // The malformed seeds are all rejected.
  for (std::size_t i = 4; i < 12; ++i) {
    EXPECT_FALSE(check_one(corpus[i])) << corpus[i];
  }
  EXPECT_TRUE(check_one(corpus[12]));
  EXPECT_FALSE(check_one(corpus[13]));
}

TEST(JsonFuzz, MutatedInputsThrowJsonErrorOrRoundTrip) {
  const std::vector<std::string>& corpus = seed_corpus();
  Rng rng(kSeed);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string& seed = corpus[static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(corpus.size())))];
    const std::string input = mutate(seed, rng, corpus);
    if (check_one(input)) ++accepted;
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << i << ", input of " << input.size()
             << " bytes: " << input.substr(0, 200);
    }
  }
  // Both outcomes must be exercised, or the mutator is not doing its job.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations - kIterations / 20);
}

}  // namespace
}  // namespace pimcomp
