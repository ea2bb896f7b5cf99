// End-to-end tests of the pimcompd serving stack: an in-process
// CompileServer, real sockets, concurrent CompileClients, and the
// acceptance triad — (a) progress events stream before outcomes, (b) a
// second client's duplicate work hits the shared session's caches, and
// (c) wire results are bit-identical to a direct CompilerSession run.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "backend/instruction_stream.hpp"
#include "core/compile_report.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "graph/serialize.hpp"
#include "serve/net.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace pimcomp {
namespace {

using serve::CompileClient;
using serve::CompileReply;
using serve::CompileRequest;
using serve::CompileServer;
using serve::ScenarioSpec;
using serve::ServeError;
using serve::ServerOptions;

Graph small_cnn() {
  GraphBuilder b("serve-cnn", {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.max_pool(x, 2, 2, 0, "pool1");
  x = b.conv_relu(x, 16, 3, 1, 1, "conv2");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  b.softmax(x, "prob");
  return b.build();
}

CompileOptions tiny_options(int parallelism) {
  CompileOptions options;
  options.mode = PipelineMode::kHighThroughput;
  options.parallelism_degree = parallelism;
  options.ga.population = 8;
  options.ga.generations = 4;
  return options;
}

ScenarioSpec scenario(int parallelism) {
  ScenarioSpec spec;
  spec.label = "P=" + std::to_string(parallelism);
  spec.options = tiny_options(parallelism);
  return spec;
}

CompileRequest inline_graph_request(std::vector<int> parallelisms) {
  CompileRequest request;
  request.graph = graph_to_json(small_cnn());
  for (int p : parallelisms) request.scenarios.push_back(scenario(p));
  return request;
}

/// Timings differ run to run by construction; everything else must be
/// bit-identical between the wire result and a direct session compile.
Json strip_stage_times(const Json& compile) {
  Json out = Json::object();
  for (const auto& [key, value] : compile.items()) {
    if (key != "stage_times") out[key] = value;
  }
  return out;
}

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/pimcomp-test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

int count_cache_hits(const std::vector<PipelineEvent>& events,
                     const std::string& cache) {
  return static_cast<int>(std::count_if(
      events.begin(), events.end(), [&](const PipelineEvent& event) {
        return event.kind == PipelineEvent::Kind::kCacheHit &&
               event.name == cache;
      }));
}

// ---------------------------------------------------------------------------
// The acceptance scenario: two concurrent clients, overlapping batches.
// ---------------------------------------------------------------------------

TEST(ServeEndToEnd, ConcurrentClientsShareOneSessionAndMatchDirectCompile) {
  ServerOptions options;
  options.unix_path = unique_socket_path("e2e");
  options.jobs = 2;  // exercise the parallel batch path inside the session
  CompileServer server(options);
  server.start();

  // Client A and client B overlap on P=2; together they cover P=2,3,4.
  CompileReply reply_a;
  CompileReply reply_b;
  std::thread thread_a([&] {
    CompileClient client = CompileClient::connect(server.endpoint());
    reply_a = client.submit(inline_graph_request({2, 3}));
  });
  std::thread thread_b([&] {
    CompileClient client = CompileClient::connect(server.endpoint());
    reply_b = client.submit(inline_graph_request({2, 4}));
  });
  thread_a.join();
  thread_b.join();
  EXPECT_EQ(server.session_count(), 1u);  // one shared session for both
  server.stop();

  for (const CompileReply* reply : {&reply_a, &reply_b}) {
    ASSERT_EQ(reply->outcomes.size(), 2u);
    EXPECT_EQ(reply->error_count, 0);
    for (const serve::OutcomeMessage& outcome : reply->outcomes) {
      EXPECT_TRUE(outcome.ok) << outcome.error;
      EXPECT_TRUE(outcome.simulation.is_object());
    }
    // Outcomes come back in enqueue order with their batch indices.
    EXPECT_EQ(reply->outcomes[0].index, 0);
    EXPECT_EQ(reply->outcomes[1].index, 1);

    // (a) Progress events arrived strictly before the first outcome frame.
    ASSERT_FALSE(reply->events.empty());
    const auto& order = reply->frame_order;
    const auto first_event = std::find(order.begin(), order.end(), "event");
    const auto first_outcome =
        std::find(order.begin(), order.end(), "outcome");
    ASSERT_NE(first_event, order.end());
    ASSERT_NE(first_outcome, order.end());
    EXPECT_LT(first_event - order.begin(), first_outcome - order.begin());

    // Per-request observer routing: every streamed event belongs to one of
    // this client's own scenarios, never the other client's.
    const std::vector<std::string> own_labels = {reply->outcomes[0].label,
                                                 reply->outcomes[1].label};
    for (const PipelineEvent& event : reply->events) {
      EXPECT_NE(std::find(own_labels.begin(), own_labels.end(),
                          event.scenario),
                own_labels.end())
          << "foreign event for scenario '" << event.scenario << "'";
    }
  }

  // (b) The shared session's caches fired across the two requests: whoever
  // ran second re-used the other's partitioned workload, and the duplicated
  // P=2 scenario re-used a whole mapping result.
  std::vector<PipelineEvent> all_events = reply_a.events;
  all_events.insert(all_events.end(), reply_b.events.begin(),
                    reply_b.events.end());
  EXPECT_GE(count_cache_hits(all_events, cache_names::kWorkload), 1);
  EXPECT_GE(count_cache_hits(all_events, cache_names::kMapping), 1);

  // (c) Wire results are bit-identical to a direct CompilerSession batch at
  // the same seeds (modulo wall-clock stage times).
  Graph reference_graph = graph_from_json(graph_to_json(small_cnn()));
  const HardwareConfig hw =
      fit_core_count(reference_graph, HardwareConfig::puma_default(), 3.0);
  CompilerSession reference(std::move(reference_graph), hw);
  std::vector<Scenario> batch;
  for (int p : {2, 3, 4}) {
    batch.push_back(
        Scenario{"P=" + std::to_string(p), tiny_options(p), std::nullopt});
  }
  std::map<std::string, std::string> expected;
  for (const ScenarioOutcome& outcome :
       reference.compile_all(std::move(batch))) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    expected[outcome.label] =
        strip_stage_times(compile_result_to_json(*outcome.result)).dump(0);
  }
  for (const CompileReply* reply : {&reply_a, &reply_b}) {
    for (const serve::OutcomeMessage& outcome : reply->outcomes) {
      EXPECT_EQ(strip_stage_times(outcome.compile).dump(0),
                expected.at(outcome.label))
          << "wire result diverged for " << outcome.label;
    }
  }
}

// ---------------------------------------------------------------------------
// Structured per-scenario errors keep the connection alive.
// ---------------------------------------------------------------------------

TEST(ServeEndToEnd, InfeasibleScenarioReportsErrorWithoutKillingConnection) {
  ServerOptions options;
  options.unix_path = unique_socket_path("infeasible");
  CompileServer server(options);
  server.start();

  CompileRequest request = inline_graph_request({2});
  // A deliberately infeasible design point: one core with a single crossbar
  // cannot hold the model even unreplicated.
  ScenarioSpec cramped;
  cramped.label = "cramped";
  cramped.options = tiny_options(2);
  Json tiny_hw = Json::object();
  tiny_hw["core_count"] = 1;
  tiny_hw["xbars_per_core"] = 1;
  cramped.hardware = tiny_hw;
  request.scenarios.push_back(cramped);

  CompileClient client = CompileClient::connect(server.endpoint());
  const CompileReply reply = client.submit(request);

  ASSERT_EQ(reply.outcomes.size(), 2u);
  EXPECT_TRUE(reply.outcomes[0].ok) << reply.outcomes[0].error;
  EXPECT_FALSE(reply.outcomes[1].ok);
  EXPECT_FALSE(reply.outcomes[1].error.empty());
  // The machine-readable classification travels the wire: clients branch
  // on "capacity" instead of string-matching the what() text.
  EXPECT_EQ(reply.outcomes[1].error_kind, to_string(ErrorKind::kCapacity));
  EXPECT_EQ(reply.ok_count, 1);
  EXPECT_EQ(reply.error_count, 1);

  // The failure was scoped to its scenario: the connection still serves.
  EXPECT_TRUE(client.ping());
  const CompileReply again = client.submit(inline_graph_request({3}));
  EXPECT_EQ(again.error_count, 0);

  server.stop();
}

// ---------------------------------------------------------------------------
// v4 artifact frames: lowered streams ride the wire next to their outcomes.
// ---------------------------------------------------------------------------

TEST(ServeEndToEnd, LoweredScenariosStreamArtifactFramesInOrder) {
  ServerOptions options;
  options.unix_path = unique_socket_path("artifact");
  CompileServer server(options);
  server.start();

  // Three scenarios: two lowered (by different backends), one not.
  CompileRequest request = inline_graph_request({2, 3, 4});
  request.scenarios[0].options.backend = "isa-json";
  request.scenarios[2].options.backend = "sim";

  CompileClient client = CompileClient::connect(server.endpoint());
  const CompileReply reply = client.submit(request);
  server.stop();

  ASSERT_EQ(reply.outcomes.size(), 3u);
  EXPECT_EQ(reply.error_count, 0);
  ASSERT_EQ(reply.artifacts.size(), 2u);

  // Each artifact names its scenario and parses back into a validated
  // stream emitted by the backend that scenario asked for.
  EXPECT_EQ(reply.artifacts[0].index, 0);
  EXPECT_EQ(reply.artifacts[0].label, "P=2");
  EXPECT_EQ(reply.artifacts[1].index, 2);
  EXPECT_EQ(reply.artifacts[1].label, "P=4");
  const InstructionStream first =
      InstructionStream::from_json(reply.artifacts[0].artifact);
  EXPECT_EQ(first.backend, "isa-json");
  EXPECT_GT(first.schedule.total_ops, 0u);
  const InstructionStream second =
      InstructionStream::from_json(reply.artifacts[1].artifact);
  EXPECT_EQ(second.backend, "sim");

  // Wire order: each artifact frame follows its scenario's outcome, and
  // the un-lowered scenario contributes no artifact frame.
  std::vector<std::string> tail;
  for (const std::string& kind : reply.frame_order) {
    if (kind != "event") tail.push_back(kind);
  }
  const std::vector<std::string> expected = {"outcome", "artifact", "outcome",
                                             "outcome", "artifact", "done"};
  EXPECT_EQ(tail, expected);
}

TEST(ServeEndToEnd, RequestHardwareCoreCountIsNotRefitAway) {
  ServerOptions options;
  options.unix_path = unique_socket_path("pinned-cores");
  CompileServer server(options);
  server.start();

  // The client pins an infeasible machine through the request-level
  // hardware JSON (no `cores` field). Auto-fit must NOT kick in and
  // silently compile for a bigger machine: the scenario has to fail.
  CompileRequest request = inline_graph_request({2});
  Json tiny_hw = Json::object();
  tiny_hw["core_count"] = 1;
  tiny_hw["xbars_per_core"] = 1;
  request.hardware = tiny_hw;

  CompileClient client = CompileClient::connect(server.endpoint());
  const CompileReply reply = client.submit(request);
  ASSERT_EQ(reply.outcomes.size(), 1u);
  EXPECT_FALSE(reply.outcomes[0].ok)
      << "auto-fit overrode the request's pinned core_count";
  EXPECT_FALSE(reply.outcomes[0].error.empty());

  server.stop();
}

TEST(ServeEndToEnd, RequestLevelErrorThrowsButConnectionSurvives) {
  ServerOptions options;
  options.unix_path = unique_socket_path("reqerror");
  CompileServer server(options);
  server.start();

  CompileClient client = CompileClient::connect(server.endpoint());
  CompileRequest bad;
  bad.model = "not-a-model";
  bad.scenarios.push_back(scenario(2));
  EXPECT_THROW(client.submit(bad), ServeError);

  EXPECT_TRUE(client.ping());
  const CompileReply reply = client.submit(inline_graph_request({2}));
  EXPECT_EQ(reply.error_count, 0);

  server.stop();
}

TEST(ServeEndToEnd, DeeplyNestedLineIsAnErrorFrameAndTheConnectionServesOn) {
  ServerOptions options;
  options.unix_path = unique_socket_path("deepjson");
  CompileServer server(options);
  server.start();

  // 100,000 open brackets: a request line that would exhaust a recursive
  // parser's stack without the depth cap.
  serve::LineChannel channel(serve::connect_unix(options.unix_path));
  channel.write_line(std::string(100000, '['));
  std::optional<std::string> line = channel.read_line();
  ASSERT_TRUE(line.has_value());
  const Json error = Json::parse(*line);
  EXPECT_EQ(error.get("type", std::string()), "error");
  EXPECT_NE(error.get("error", std::string()).find("nests deeper"),
            std::string::npos)
      << *line;

  // The same connection then compiles a normal request to completion.
  CompileRequest request = inline_graph_request({2});
  request.id = 9;
  channel.write_line(serve::to_json(request).dump(-1));
  int outcomes_ok = 0;
  for (;;) {
    line = channel.read_line();
    ASSERT_TRUE(line.has_value());
    const Json frame = Json::parse(*line);
    const std::string type = frame.get("type", std::string());
    if (type == "outcome" && frame.get("ok", false)) ++outcomes_ok;
    if (type == "done") break;
    ASSERT_NE(type, "error") << *line;
  }
  EXPECT_EQ(outcomes_ok, 1);
  server.stop();
}

TEST(ServeEndToEnd, InexactIntegerIsAnErrorFrameAndTheConnectionServesOn) {
  ServerOptions options;
  options.unix_path = unique_socket_path("inexact");
  CompileServer server(options);
  server.start();

  // An id that is not an exact integer fails the request, not the
  // connection; the error frame answers under id 0.
  serve::LineChannel channel(serve::connect_unix(options.unix_path));
  for (const char* line : {R"({"type": "stats", "id": 0.5})",
                           R"({"type": "compile", "id": 1e300, )"
                           R"("model": "squeezenet", "scenarios": [{}]})"}) {
    channel.write_line(line);
    const std::optional<std::string> reply = channel.read_line();
    ASSERT_TRUE(reply.has_value()) << line;
    const Json error = Json::parse(*reply);
    EXPECT_EQ(error.get("type", std::string()), "error") << *reply;
    EXPECT_EQ(error.get("id", std::int64_t{-1}), 0) << *reply;
    EXPECT_NE(error.get("error", std::string()).find("exact"),
              std::string::npos)
        << *reply;
  }
  channel.write_line(R"({"type": "ping", "id": 4})");
  const std::optional<std::string> pong = channel.read_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(Json::parse(*pong).get("id", std::int64_t{0}), 4);
  server.stop();
}

TEST(ServeEndToEnd, NonStringTypeIsAnErrorFrameAndTheConnectionServesOn) {
  ServerOptions options;
  options.unix_path = unique_socket_path("typenum");
  CompileServer server(options);
  server.start();

  serve::LineChannel channel(serve::connect_unix(options.unix_path));
  channel.set_recv_timeout(10);
  channel.write_line(R"({"type": 5, "id": 2})");
  const std::optional<std::string> reply = channel.read_line();
  ASSERT_TRUE(reply.has_value()) << "connection dropped";
  const Json error = Json::parse(*reply);
  EXPECT_EQ(error.get("type", std::string()), "error") << *reply;
  EXPECT_EQ(error.get("id", std::int64_t{0}), 2) << *reply;

  channel.write_line(R"({"type": "ping", "id": 3})");
  const std::optional<std::string> pong = channel.read_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(Json::parse(*pong).get("type", std::string()), "pong") << *pong;
  EXPECT_EQ(Json::parse(*pong).get("id", std::int64_t{0}), 3) << *pong;
  server.stop();
}

// ---------------------------------------------------------------------------
// TCP transport and lifecycle.
// ---------------------------------------------------------------------------

TEST(ServeEndToEnd, TcpEphemeralPortServesAndStopsGracefully) {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral: the server reports what it bound
  CompileServer server(options);
  server.start();
  ASSERT_GT(server.port(), 0);

  CompileClient client =
      CompileClient::connect_tcp("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping());
  const CompileReply reply = client.submit(inline_graph_request({2}));
  EXPECT_EQ(reply.error_count, 0);
  EXPECT_EQ(server.requests_served(), 1u);

  server.stop();
  EXPECT_FALSE(server.running());
  // stop() is idempotent and the server restarts cleanly on a fresh port.
  server.stop();
  EXPECT_THROW(CompileClient::connect_tcp("127.0.0.1", server.port()),
               ServeError);
}

TEST(ServeEndToEnd, RefusesToReplaceANonSocketFileButReclaimsStaleSockets) {
  // A mistyped --unix pointing at a regular file must not delete it.
  const std::string file_path = unique_socket_path("notasocket");
  FILE* f = ::fopen(file_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  ::fputs("precious\n", f);
  ::fclose(f);
  ServerOptions options;
  options.unix_path = file_path;
  CompileServer server(options);
  EXPECT_THROW(server.start(), ServeError);
  EXPECT_EQ(::access(file_path.c_str(), F_OK), 0);  // file survived
  ::unlink(file_path.c_str());

  // A stale socket file with no listener behind it is reclaimed.
  const std::string stale_path = unique_socket_path("stale");
  {
    serve::Socket dead = serve::listen_unix(stale_path);
  }  // closed without unlink: exactly what an unclean daemon death leaves
  ASSERT_EQ(::access(stale_path.c_str(), F_OK), 0);
  ServerOptions stale_options;
  stale_options.unix_path = stale_path;
  CompileServer reclaimer(stale_options);
  reclaimer.start();
  CompileClient client = CompileClient::connect(reclaimer.endpoint());
  EXPECT_TRUE(client.ping());
  reclaimer.stop();
}

TEST(ServeEndToEnd, UnixSocketPathAppearsOnlyOnceItAcceptsConnections) {
  // A watcher connects the moment the path exists, as scripts waiting for
  // `[ -S PATH ]` do; the listener must already be accepting by then.
  const std::string path = unique_socket_path("appear");
  for (int i = 0; i < 500; ++i) {
    std::string failure;
    std::atomic<bool> watching{false};
    std::thread watcher([&] {
      watching = true;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (::access(path.c_str(), F_OK) != 0) {
        if (std::chrono::steady_clock::now() > deadline) {
          failure = "the socket path never appeared";
          return;
        }
      }
      try {
        serve::Socket connected = serve::connect_unix(path);
      } catch (const ServeError& e) {
        failure = e.what();
      }
    });
    while (!watching) std::this_thread::yield();
    serve::Socket listener = serve::listen_unix(path);
    watcher.join();
    ::unlink(path.c_str());
    ASSERT_EQ(failure, "") << "iteration " << i;
  }
}

TEST(ServeEndToEnd, StopRemovesTheUnixSocketFile) {
  ServerOptions options;
  options.unix_path = unique_socket_path("cleanup");
  CompileServer server(options);
  server.start();
  EXPECT_EQ(::access(options.unix_path.c_str(), F_OK), 0);

  // A second daemon must not steal a live daemon's socket path.
  CompileServer usurper(options);
  EXPECT_THROW(usurper.start(), ServeError);
  EXPECT_EQ(::access(options.unix_path.c_str(), F_OK), 0);

  server.stop();
  EXPECT_NE(::access(options.unix_path.c_str(), F_OK), 0);

  // With the first daemon gone the path is genuinely free again.
  usurper.start();
  CompileClient client = CompileClient::connect(usurper.endpoint());
  EXPECT_TRUE(client.ping());
  usurper.stop();
}

}  // namespace
}  // namespace pimcomp
