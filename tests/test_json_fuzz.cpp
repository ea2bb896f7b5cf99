// Deterministic mutation fuzzing of the JSON parser, the one entry point of
// every untrusted input (request lines, peer cache_put frames, disk
// artifacts, graph files), and of the cache-artifact decoder behind it. A
// fixed seed and iteration count make it an ordinary ctest, so the
// sanitizer builds cover it. For every input, `parse` must either throw
// JsonError or return a value whose compact dump re-parses to the same
// bytes; for every structurally mutated artifact,
// `compile_result_from_artifact` must either throw pimcomp::Error (which
// the session turns into a cache miss) or return a valid result.

#include <gtest/gtest.h>

#include <exception>
#include <iterator>
#include <memory>
#include <optional>
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
constexpr std::uint64_t kArtifactSeed = 0x5EED'A471'FAC7'0002ull;
constexpr int kArtifactMutants = 400;

/// A real cache artifact plus everything its decoder checks it against.
struct ArtifactFixture {
  std::unique_ptr<CompilerSession> session;  ///< owns the workload's graph
  std::shared_ptr<const Workload> workload;
  CompileOptions options;
  Json artifact;
};

const ArtifactFixture& artifact_fixture() {
  static const ArtifactFixture fixture = [] {
    Graph graph = zoo::squeezenet(32);
    graph.finalize();
    const HardwareConfig hw =
        fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
    ArtifactFixture made;
    made.options.mode = PipelineMode::kLowLatency;
    made.options.parallelism_degree = 4;
    made.options.ga.population = 4;
    made.options.ga.generations = 2;
    made.session = std::make_unique<CompilerSession>(std::move(graph), hw);
    const CompileResult result = made.session->compile(made.options);
    made.workload = result.workload;
    made.artifact = compile_result_to_artifact(
        result, made.session->fingerprint(), 0x0123456789abcdefull);
    return made;
  }();
  return fixture;
}

/// The inputs mutations start from: one of each untrusted document kind,
/// plus malformed cases the grammar must reject.
const std::vector<std::string>& seed_corpus() {
  static const std::vector<std::string> corpus = [] {
    const ArtifactFixture& fixture = artifact_fixture();
    const Json graph_json = graph_to_json(fixture.session->graph());
    const CompileOptions& options = fixture.options;
    const Json& artifact = fixture.artifact;

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

/// One structural edit of a parsed artifact: a number replaced by an
/// out-of-range or non-integral value, an object key dropped, or an array
/// truncated (possibly to empty).
enum class Edit { kNumber, kDropKey, kCutArray };

/// Numbers the decoder must survive wherever they land.
constexpr double kHostileNumbers[] = {-1.0, 0.0, 2147483648.0,
                                      9007199254740992.0, 1e300, 0.5};

struct NodeCounts {
  int numbers = 0;
  int keys = 0;
  int arrays = 0;
};

void count_nodes(const Json& node, NodeCounts& counts) {
  if (node.is_number()) {
    ++counts.numbers;
  } else if (node.is_array()) {
    ++counts.arrays;
    for (std::size_t i = 0; i < node.size(); ++i) {
      count_nodes(node.at(i), counts);
    }
  } else if (node.is_object()) {
    for (const auto& [key, value] : node.items()) {
      ++counts.keys;
      count_nodes(value, counts);
    }
  }
}

/// Copies a document, applying `edit` to the `target`-th candidate node of
/// its kind in pre-order; `applied` says what was done, for failure
/// messages.
class ArtifactMutator {
 public:
  ArtifactMutator(Edit edit, int target, Rng& rng)
      : edit_(edit), target_(target), rng_(rng) {}

  Json copy(const Json& node) {
    if (node.is_number()) {
      if (edit_ == Edit::kNumber && seen_++ == target_) {
        const double value = kHostileNumbers[rng_.uniform_int(
            static_cast<int>(std::size(kHostileNumbers)))];
        applied = "number #" + std::to_string(target_) + " -> " +
                  Json(value).dump(-1);
        return value;
      }
      return node;
    }
    if (node.is_array()) {
      std::size_t keep = node.size();
      if (edit_ == Edit::kCutArray && seen_++ == target_) {
        keep = keep == 0 || rng_.bernoulli(0.5)
                   ? 0
                   : static_cast<std::size_t>(
                         rng_.uniform_int(static_cast<int>(keep)));
        applied = "array #" + std::to_string(target_) + " of " +
                  std::to_string(node.size()) + " cut to " +
                  std::to_string(keep);
      }
      Json out = Json::array();
      for (std::size_t i = 0; i < keep; ++i) out.push_back(copy(node.at(i)));
      return out;
    }
    if (node.is_object()) {
      Json out = Json::object();
      for (const auto& [key, value] : node.items()) {
        if (edit_ == Edit::kDropKey && seen_++ == target_) {
          applied = "key '" + key + "' dropped";
          continue;
        }
        out[key] = copy(value);
      }
      return out;
    }
    return node;
  }

  std::string applied;

 private:
  const Edit edit_;
  const int target_;
  Rng& rng_;
  int seen_ = 0;
};

TEST(JsonFuzz, MutatedArtifactsDecodeToAValidResultOrThrowError) {
  const ArtifactFixture& fixture = artifact_fixture();
  NodeCounts counts;
  count_nodes(fixture.artifact, counts);
  ASSERT_GT(counts.numbers, 0);
  ASSERT_GT(counts.keys, 0);
  ASSERT_GT(counts.arrays, 0);

  Rng rng(kArtifactSeed);
  int rejected = 0;
  for (int i = 0; i < kArtifactMutants; ++i) {
    const auto edit = static_cast<Edit>(rng.uniform_int(3));
    const int candidates = edit == Edit::kNumber    ? counts.numbers
                           : edit == Edit::kDropKey ? counts.keys
                                                    : counts.arrays;
    ArtifactMutator mutator(edit, rng.uniform_int(candidates), rng);
    const Json mutant = mutator.copy(fixture.artifact);
    try {
      const CompileResult result = compile_result_from_artifact(
          mutant, fixture.workload, fixture.options,
          fixture.session->fingerprint());
      EXPECT_EQ(schedule_violation(result.schedule), std::nullopt);
      EXPECT_NO_THROW(result.solution.validate());
    } catch (const Error&) {
      ++rejected;  // the session's cache miss
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-Error exception: " << e.what();
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "mutant " << i << ": " << mutator.applied;
    }
  }
  // Both outcomes must be exercised, or the mutator is not doing its job.
  EXPECT_GT(rejected, kArtifactMutants / 20);
  EXPECT_LT(rejected, kArtifactMutants - kArtifactMutants / 20);
}

}  // namespace
}  // namespace pimcomp
