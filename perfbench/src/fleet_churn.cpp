// fleet-churn: a router in front of two peered daemons with disk tiers,
// two closed-loop clients. Setup persists a read set into both daemons'
// disk directories and starts the daemons on them with empty memory. The
// timed phase interleaves two request classes drawn from the seed: reads
// of persisted keys (disk hits) and writes of fresh keys, which miss all
// three tiers, run a small compile, write to disk and push to the peer.

#include <atomic>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "cache/artifact.hpp"
#include "cache/disk_store.hpp"
#include "common/random.hpp"
#include "core/session.hpp"
#include "fleet/remote_store.hpp"
#include "fleet/router.hpp"
#include "graph/zoo/zoo.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace pimcomp;
namespace fs = std::filesystem;

namespace {

constexpr int kClients = 2;
/// Requests per second of --seconds: fixed counts keep every run's work,
/// and its per-class request counts, identical at one seed.
constexpr int kRequestsPerSecond = 24;
constexpr int kReplays = 40;
constexpr int kRelayProbes = 40;
constexpr int kJobs = 4;  ///< populate fan-out

constexpr int kDaemonJobs = 2;  ///< one per client: no job-queue wait

/// The models both classes cycle through. The router shards on the graph,
/// so several models spread each class over both daemons.
const std::vector<std::string> kModels = {"squeezenet", "resnet18",
                                          "googlenet"};

/// Key `index` of a class: reads are LL artifacts, writes HT compiles, both
/// cycling through kModels; every key has a GA seed of its own.
Key fleet_key(std::uint64_t seed, bool read, std::size_t index) {
  Key key{kModels[index % kModels.size()], 32,
          read ? PipelineMode::kLowLatency : PipelineMode::kHighThroughput, 4,
          8, 4};
  key.seed = wire_seed(seed, (read ? 1000003 : 2000003) + index);
  return key;
}

struct Reference {
  std::string digest;
  double simulate_ms = 0.0;
  double makespan = 0.0;
  std::int64_t evaluations = 0;
  std::int64_t ops = 0;
};

/// Compiles `keys` directly through one CompilerSession per model (the
/// result every served outcome must equal) with kJobs workers each, then,
/// once every compile is done, simulates each result; with a cache
/// directory the results are persisted there.
std::vector<Reference> compile_direct(const std::vector<Key>& keys,
                                      const std::string& cache_dir) {
  std::map<std::string, std::unique_ptr<CompilerSession>> sessions;
  std::vector<CompileJob> jobs;
  for (const Key& key : keys) {
    auto& session = sessions[key.model];
    if (!session) {
      serve::ResolvedRequest resolved =
          serve::resolve_compile_request(key.request());
      CacheConfig cache;
      cache.dir = cache_dir;
      session = std::make_unique<CompilerSession>(
          std::move(resolved.graph), resolved.hardware, cache);
      session->set_jobs(kJobs);
    }
    jobs.push_back(session->submit(key.options(), key.label()));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!jobs[i].wait().ok()) {
      throw std::runtime_error("direct compile of " + keys[i].label() +
                               " failed: " + jobs[i].wait().error);
    }
  }
  // Simulations run one at a time on an otherwise idle process: compiles
  // or other simulations running alongside would be timed with them.
  std::vector<Reference> out;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const CompileResult& result = *jobs[i].wait().result;
    const auto start = Clock::now();
    const SimReport sim = [&] {
      ScopedSpan span("sim.simulate", "ga:" + keys[i].label());
      return sessions.at(keys[i].model)->simulate(result);
    }();
    Reference ref;
    ref.simulate_ms = ms_since(start);
    check_result(result, sim);
    ref.digest = result_digest(result, sim);
    ref.makespan = static_cast<double>(sim.makespan);
    ref.evaluations = result.ga_stats.evaluations;
    ref.ops = result.schedule.total_ops;
    out.push_back(std::move(ref));
  }
  return out;
}

Key puma_key(const Key& key) {
  Key puma = key;
  puma.mapper = "puma";
  puma.seed = 1;  // the baseline is deterministic; one slot per design point
  return puma;
}

/// The fleet of one setup: two peered daemons and the router in front.
struct Fleet {
  std::unique_ptr<serve::CompileServer> a, b;
  std::unique_ptr<fleet::Router> router;
  std::vector<Reference> reads;
  fs::path dir;

  void stop() {
    if (router) router->stop();
    if (a) a->stop();
    if (b) b->stop();
  }
};

/// Starts the daemons on `dir`'s cache directories and the router.
void start_fleet(Fleet& fleet, const fs::path& dir) {
  fleet.dir = dir;
  const std::string a_sock = (dir / "a.sock").string();
  const std::string b_sock = (dir / "b.sock").string();
  const auto daemon = [&](const std::string& sock, const std::string& cache,
                          const std::string& peer) {
    serve::ServerOptions options;
    options.unix_path = sock;
    options.cache.dir = cache;
    options.cache.peers = {"unix:" + peer};
    options.jobs = kDaemonJobs;
    auto server = std::make_unique<serve::CompileServer>(options);
    server->start();
    return server;
  };
  fleet.a = daemon(a_sock, (dir / "a").string(), b_sock);
  fleet.b = daemon(b_sock, (dir / "b").string(), a_sock);
  fleet::RouterOptions options;
  options.unix_path = (dir / "router.sock").string();
  options.backends = {fleet.a->endpoint(), fleet.b->endpoint()};
  fleet.router = std::make_unique<fleet::Router>(std::move(options));
  fleet.router->start();
}

/// PUMA-like baseline makespan per (model, mode, parallelism) of `keys`,
/// compiled on bare compilers (no cache tier sees them).
std::map<std::string, double> puma_baselines(const std::vector<Key>& keys,
                                             StageSpans& stages) {
  std::map<std::string, double> out;
  std::map<std::string, std::unique_ptr<Compiler>> compilers;
  PipelineObserver* observer = Tracer::get().enabled() ? &stages : nullptr;
  for (const Key& key : keys) {
    Key puma = puma_key(key);
    if (out.count(puma.label()) != 0) continue;
    auto& compiler = compilers[key.model];
    if (!compiler) {
      serve::ResolvedRequest resolved =
          serve::resolve_compile_request(key.request());
      compiler = std::make_unique<Compiler>(std::move(resolved.graph),
                                            resolved.hardware);
    }
    stages.detail = "puma:" + puma.label();
    const CompileResult result = [&] {
      ScopedSpan span("core.compile", stages.detail);
      return compiler->compile(puma.options(), observer);
    }();
    out[puma.label()] =
        static_cast<double>(compiler->simulate(result).makespan);
  }
  return out;
}

struct ProbeTotals {
  std::int64_t write_evaluations = 0;
  std::int64_t read_ops = 0;
  double json_bytes = 0.0;
  double relay_ms = 0.0;
};

/// Traced run only. Replays sampled reads and writes through the public
/// calls a daemon makes for them, one span per call, then probes the JSON
/// codec's throughput and the router's relay cost.
ProbeTotals replay_and_probe(const Args& args, const std::vector<Key>& reads,
                             const std::vector<Key>& writes, Fleet& fleet,
                             StageSpans& stages) {
  ProbeTotals totals;
  Rng rng(split_seed(args.seed, 3000));
  CacheConfig scratch_config;
  scratch_config.dir = "replay-disk";
  fs::remove_all(scratch_config.dir);
  DiskStore scratch(scratch_config);
  CacheConfig a_config;
  a_config.dir = (fleet.dir / "a").string();
  DiskStore a_disk(a_config);
  // The replay plays daemon a, whose one peer is b.
  CacheConfig peer_config;
  peer_config.peers = {fleet.b->endpoint()};
  fleet::RemoteStore peers(peer_config);
  std::vector<std::string> artifact_texts;
  // Per model: a session, and the partitioned workload its reads decode
  // against.
  struct ReadSession {
    std::unique_ptr<CompilerSession> session;
    std::shared_ptr<const Workload> workload;
  };
  std::map<std::string, ReadSession> read_sessions;
  for (const Key& key : reads) {
    ReadSession& rs = read_sessions[key.model];
    if (rs.session) continue;
    serve::ResolvedRequest resolved =
        serve::resolve_compile_request(key.request());
    rs.session = std::make_unique<CompilerSession>(std::move(resolved.graph),
                                                   resolved.hardware);
    rs.workload = rs.session->compile(puma_key(key).options()).workload;
  }

  for (int r = 0; r < kReplays; ++r) {
    // A read: disk hit, decode, simulate.
    {
      const Key& key = reads[static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(reads.size())))];
      CompilerSession& session = *read_sessions.at(key.model).session;
      {
        ScopedSpan span("core.hit", "probe", true);
        session.compile(puma_key(key).options());
      }
      const std::uint64_t mapping_key = combine_fingerprints(
          session.fingerprint(), fingerprint(key.options()));
      const std::string detail = "read:" + key.label();
      std::optional<CacheHit> hit;
      {  // the replayed read; the artifact dump below is the JSON probe
        ScopedSpan root("bench.replay", detail, true);
        const serve::CompileRequest parsed = request_codec(key.request(), detail);
        {
          ScopedSpan span("serve.resolve", detail);
          serve::resolve_compile_request(parsed);
        }
        {
          ScopedSpan span("cache.disk_load", detail);
          hit = a_disk.load(mapping_key);
        }
        if (!hit) throw std::runtime_error("replayed read missed the disk tier");
        const CompileResult decoded = [&] {
          ScopedSpan span("cache.decode", detail);
          return compile_result_from_artifact(hit->entry.artifact,
                                              read_sessions.at(key.model).workload,
                                              key.options(),
                                              session.fingerprint());
        }();
        const SimReport sim = [&] {
          ScopedSpan span("sim.simulate", detail);
          return session.simulate(decoded);
        }();
        reply_codec(decoded, sim, detail);
        totals.read_ops += decoded.schedule.total_ops;
      }
      artifact_texts.push_back(hit->entry.artifact.dump(-1));
    }
    // A write: miss every tier, compile, persist, push to the peers.
    {
      const Key& key = writes[static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(writes.size())))];
      const std::string detail =
          std::string("write:") + mode_tag(key.mode) + ":" + key.label();
      const std::uint64_t fresh = rng.next_u64();
      ScopedSpan root("bench.replay", detail, true);
      const serve::CompileRequest parsed = request_codec(key.request(), detail);
      serve::ResolvedRequest resolved = [&] {
        ScopedSpan span("serve.resolve", detail);
        return serve::resolve_compile_request(parsed);
      }();
      {
        ScopedSpan span("fleet.remote_load", detail);
        if (peers.load(fresh)) throw std::runtime_error("fresh key was remote");
      }
      const Compiler compiler(std::move(resolved.graph), resolved.hardware);
      stages.detail = detail;
      const CompileResult result = [&] {
        ScopedSpan span("core.compile", detail);
        return compiler.compile(key.options(), &stages);
      }();
      totals.write_evaluations += result.ga_stats.evaluations;
      CacheEntry entry;
      {
        ScopedSpan span("cache.encode", detail);
        entry.artifact = compile_result_to_artifact(
            result, combine_fingerprints(fingerprint(compiler.graph()),
                                         fingerprint(compiler.hardware())),
            fresh);
      }
      {
        ScopedSpan span("cache.disk_store", detail);
        scratch.store(fresh, entry);
      }
      {
        ScopedSpan span("fleet.remote_store", detail);
        peers.store(fresh, entry);
      }
      const SimReport sim = [&] {
        ScopedSpan span("sim.simulate", detail);
        return compiler.simulate(result);
      }();
      reply_codec(result, sim, detail);
    }
  }

  // JSON codec throughput on the replayed artifacts.
  for (const std::string& text : artifact_texts) {
    ScopedSpan root("probe.json", "artifact", true);
    const Json parsed = [&] {
      ScopedSpan span("json.parse", "artifact");
      return Json::parse(text);
    }();
    ScopedSpan span("json.dump", "artifact");
    totals.json_bytes += static_cast<double>(parsed.dump(-1).size());
  }

  // Relay: a warm read through the router minus the same read sent to the
  // daemon the router shards it to (fingerprint modulo the backend count).
  std::vector<double> via_router, direct;
  serve::CompileClient router = serve::CompileClient::connect(fleet.router->endpoint());
  serve::CompileClient a = serve::CompileClient::connect(fleet.a->endpoint());
  serve::CompileClient b = serve::CompileClient::connect(fleet.b->endpoint());
  for (int p = 0; p < kRelayProbes; ++p) {
    const serve::CompileRequest request =
        reads[static_cast<std::size_t>(p) % reads.size()].request();
    serve::CompileClient& owner =
        serve::resolve_compile_request(request).fingerprint % 2 == 0 ? a : b;
    router.submit(request);  // resident again even if the tier evicted it
    auto t0 = Clock::now();
    {
      ScopedSpan span("fleet.relay", "router", true);
      router.submit(request);
    }
    via_router.push_back(ms_since(t0));
    t0 = Clock::now();
    {
      ScopedSpan span("serve.direct", "daemon", true);
      owner.submit(request);
    }
    direct.push_back(ms_since(t0));
  }
  totals.relay_ms = median(via_router) - median(direct);
  for (int p = 0; p < kRelayProbes; ++p) {
    ScopedSpan span("serve.ping", "probe", true);
    a.ping();
  }
  for (int p = 0; p < kRelayProbes; ++p) {
    ScopedSpan span("graph.build", "resnet18", true);
    zoo::build("resnet18", 32);
  }
  return totals;
}

/// Per-layer metrics of the traced run, from the replay and probe spans.
void fill_fleet_layers(Report& report, const ProbeTotals& totals,
                       double read_p50) {
  Tracer& tracer = Tracer::get();
  const auto med = [&](const char* name, const char* prefix) {
    return median(tracer.durations(name, prefix, false));
  };
  const auto sum = [&](const char* name, const char* prefix) {
    double total = 0.0;
    for (double v : tracer.durations(name, prefix, false)) total += v;
    return total;
  };
  report.layer("graph.build_ms", med("graph.build", ""));
  report.layer("partition.ms", med("partition.stage", "write:"));
  report.layer("mapping.ga_s", med("mapping.stage", "write:") / 1e3);
  report.layer("mapping.evals_per_s",
               static_cast<double>(totals.write_evaluations) /
                   (sum("mapping.stage", "write:") / 1e3));
  report.layer("mapping.puma_ms", tracer.sum_of_medians("mapping.stage", "puma:"));
  report.layer("schedule.ht_s", med("schedule.stage", "write:HT:") / 1e3);
  report.layer("schedule.ll_s", med("schedule.stage", "write:LL:") / 1e3);
  report.layer("sim.s", tracer.sum_of_medians("sim.simulate", "ga:") / 1e3);
  report.layer("sim.ops_per_s",
               static_cast<double>(totals.read_ops) /
                   (sum("sim.simulate", "read:") / 1e3));
  report.layer("sim.request_ms", med("sim.simulate", "read:"));
  report.layer("core.hit_ms", med("core.hit", "probe"));
  report.layer("core.overhead_ms",
               median(tracer.durations("core.compile", "write:", true)));
  const double resolve = med("serve.resolve", "read:");
  const double request_codec = med("serve.request_codec", "read:");
  const double reply_codec = med("serve.reply_codec", "read:");
  report.layer("serve.resolve_ms", resolve);
  report.layer("serve.request_codec_ms", request_codec);
  report.layer("serve.reply_codec_ms", reply_codec);
  report.layer("serve.ping_ms", med("serve.ping", ""));
  report.layer("cache.encode_ms", med("cache.encode", "write:"));
  report.layer("cache.decode_ms", med("cache.decode", "read:"));
  report.layer("cache.disk_store_ms", med("cache.disk_store", "write:"));
  report.layer("cache.disk_load_ms", med("cache.disk_load", "read:"));
  report.layer("cache.remote_miss_ms", med("fleet.remote_load", "write:"));
  report.layer("cache.remote_push_ms", med("fleet.remote_store", "write:"));
  report.layer("json.dump_mb_s",
               totals.json_bytes / 1e6 / (sum("json.dump", "") / 1e3));
  report.layer("json.parse_mb_s",
               totals.json_bytes / 1e6 / (sum("json.parse", "") / 1e3));
  report.layer("fleet.relay_ms", totals.relay_ms);
  // What a read replay covers of a p50 read; the rest is sockets,
  // readers, the router hop, and queueing behind writes.
  report.layer("serve.unattributed_ms",
               read_p50 - med("bench.replay", "read:"));
  for (const auto& [layer, ms] : print_self_time_table("bench.replay")) {
    report.layer("self." + layer + "_ms", ms);
  }
}

}  // namespace

Report run_fleet_churn(const Args& args) {
  Report report;
  Tracer& tracer = Tracer::get();
  StageSpans stages;

  // The class sequence and both key sets come from the seed: as many reads
  // as writes, in shuffled order.
  const int total = kRequestsPerSecond * args.seconds;
  std::vector<char> classes(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) classes[i] = i % 2 == 0 ? 'r' : 'w';
  Rng shuffle(split_seed(args.seed, 7));
  shuffle.shuffle(classes);
  std::vector<Key> read_keys, write_keys;
  for (char c : classes) {
    if (c == 'r') read_keys.push_back(fleet_key(args.seed, true, read_keys.size()));
    if (c == 'w') write_keys.push_back(fleet_key(args.seed, false, write_keys.size()));
  }
  std::vector<serve::CompileRequest> read_requests, write_requests;
  for (const Key& key : read_keys) read_requests.push_back(key.request());
  for (const Key& key : write_keys) write_requests.push_back(key.request());

  // PUMA baselines per (model, mode, parallelism), for the quality ratios.
  std::map<std::string, double> puma_makespan;

  // Setup, repeated in fresh directories: the read set compiled directly
  // and persisted to daemon a's directory, copied to b's, then both
  // daemons and the router started on them with empty memory.
  std::vector<Key> baseline_keys;  // one per (model, mode) design point
  for (std::size_t i = 0; i < kModels.size(); ++i) {
    baseline_keys.push_back(read_keys.at(i));
    baseline_keys.push_back(write_keys.at(i));
  }
  Fleet fleet;
  std::vector<Reference> first_reads;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> simulate_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fleet.stop();
    if (rep > 0) fs::remove_all(fleet.dir);
    fleet = Fleet{};
    const fs::path dir = "rep" + std::to_string(rep);
    const auto start = Clock::now();
    ScopedSpan root("bench.setup", "setup", true);
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<Reference> refs = compile_direct(read_keys, (dir / "a").string());
    if (rep == 0) first_reads = refs;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (refs[i].digest != first_reads[i].digest) {
        report.broken("direct compile of " + read_keys[i].label() +
                      " differs between setups");
      }
    }
    fleet.reads = std::move(refs);
    fs::copy(dir / "a", dir / "b", fs::copy_options::recursive);
    puma_makespan = puma_baselines(baseline_keys, stages);
    start_fleet(fleet, dir);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start)
                          .count());
    for (std::size_t i = 0; i < read_keys.size(); ++i) {
      simulate_ms[read_keys[i].label()].push_back(fleet.reads[i].simulate_ms);
    }
  }
  const CacheStoreStats disk = [&] {
    CacheConfig config;
    config.dir = (fleet.dir / "a").string();
    return DiskStore(config).stats();
  }();

  // Timed phase: the clients take the next request of the shared sequence
  // until it runs out; every outcome is checked against the direct result
  // (reads at once, writes after the phase).
  std::vector<std::size_t> class_index(classes.size());
  for (std::size_t i = 0, r = 0, w = 0; i < classes.size(); ++i) {
    class_index[i] = classes[i] == 'r' ? r++ : w++;
  }
  std::vector<double> latency(classes.size(), -1.0);
  std::vector<std::string> write_digests(write_keys.size());
  std::vector<double> write_compile_ms(write_keys.size(), 0.0);
  std::atomic<std::size_t> cursor{0};
  const auto timed_start = Clock::now();
  {
    std::vector<Thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        bool more = true;
        while (more) {
          try {
            serve::CompileClient client =
                serve::CompileClient::connect(fleet.router->endpoint());
            for (;;) {
              const std::size_t op = cursor.fetch_add(1);
              if (op >= classes.size()) {
                more = false;
                break;
              }
              const std::size_t k = class_index[op];
              const bool read = classes[op] == 'r';
              const auto t0 = Clock::now();
              serve::CompileReply reply;
              {
                ScopedSpan span("client.request",
                                read ? "read" : "write", true);
                reply = client.submit(read ? read_requests[k]
                                           : write_requests[k]);
              }
              const double ms = ms_since(t0);
              if (!reply.all_ok() || reply.outcomes.size() != 1) continue;
              const std::string digest = outcome_digest(
                  reply.outcomes[0].compile, reply.outcomes[0].simulation);
              if (read && digest != fleet.reads[k].digest) continue;
              if (!read) {
                write_digests[k] = digest;
                write_compile_ms[k] =
                    serve::stage_seconds_from_json(reply.outcomes[0].compile) *
                    1e3;
              }
              latency[op] = ms;
            }
          } catch (const std::exception&) {
            // The request in flight stays unanswered (latency < 0).
          }
        }
      });
    }
    for (Thread& t : clients) t.join();
  }
  const double timed_s =
      std::chrono::duration<double>(Clock::now() - timed_start).count();

  const auto stats_of = [](const serve::CompileServer& server) {
    return serve::CompileClient::connect(server.endpoint()).stats();
  };
  const Json a_stats = stats_of(*fleet.a);
  const Json b_stats = stats_of(*fleet.b);
  const auto ratio = [&](const std::string& name) {
    const auto a = tier_counts(a_stats, name);
    const auto b = tier_counts(b_stats, name);
    const double lookups = a.second + b.second;
    return lookups > 0.0 ? (a.first + b.first) / lookups : 0.0;
  };
  double retries = 0.0;
  const Json router_stats = fleet.router->stats_payload();
  for (std::size_t i = 0; i < router_stats.at("backends").size(); ++i) {
    retries += static_cast<double>(
        router_stats.at("backends").at(i).at("retries").as_int());
  }

  // Writes: the direct result of every fresh key, compiled after the
  // phase so that it cannot warm any tier the daemons see.
  const std::vector<Reference> write_refs = compile_direct(write_keys, "");
  std::vector<double> all, reads, writes;
  for (std::size_t op = 0; op < classes.size(); ++op) {
    ++report.attempted;
    const std::size_t k = class_index[op];
    const bool read = classes[op] == 'r';
    if (latency[op] < 0.0 ||
        (!read && write_digests[k] != write_refs[k].digest)) {
      report.op_failed(std::string(read ? "read " : "write ") +
                       (read ? read_keys[k] : write_keys[k]).label() +
                       " errored or differs from the direct result");
      continue;
    }
    all.push_back(latency[op]);
    (read ? reads : writes).push_back(latency[op]);
  }

  // Quality against PUMA: reads are the LL design points, writes the HT
  // ones.
  std::vector<double> ht_ratio, ll_ratio;
  std::int64_t evaluations = 0, ops = 0;
  for (std::size_t i = 0; i < read_keys.size(); ++i) {
    ll_ratio.push_back(puma_makespan.at(puma_key(read_keys[i]).label()) /
                       fleet.reads[i].makespan);
    evaluations += fleet.reads[i].evaluations;
    ops += fleet.reads[i].ops;
  }
  for (std::size_t i = 0; i < write_keys.size(); ++i) {
    ht_ratio.push_back(puma_makespan.at(puma_key(write_keys[i]).label()) /
                       write_refs[i].makespan);
    evaluations += write_refs[i].evaluations;
    ops += write_refs[i].ops;
  }
  // compile_s: the daemons' own compile time (stage-time sum in each
  // outcome) over every write, spread across the whole timed phase.
  double compile_sum = 0.0;
  for (double ms : write_compile_ms) compile_sum += ms;
  double simulate_sum = 0.0;
  for (const auto& [label, values] : simulate_ms) simulate_sum += minimum(values);
  const Tail tail = tail_of(all);
  std::cout << "fleet-churn: " << kClients << " closed-loop clients via the "
            << "router, " << reads.size() << " reads + " << writes.size()
            << " writes in " << timed_s << " s; latency_tail_ms is "
            << tail.label << " (" << tail.beyond << " of " << all.size()
            << " samples beyond); read set " << disk.entries
            << " artifacts, " << disk.bytes / 1024 << " KB\n";

  report.e2e("setup_s", median(setup_s));
  report.e2e("compile_s", compile_sum / 1e3);
  report.e2e("simulate_s", simulate_sum / 1e3);
  report.e2e("ht_throughput_x_puma", geomean(ht_ratio));
  report.e2e("ll_latency_x_puma", geomean(ll_ratio));
  report.e2e("latency_p50_ms", median(all));
  report.e2e("latency_tail_ms", tail.value);
  report.e2e("throughput_rps", static_cast<double>(all.size()) / timed_s);
  report.e2e("read_p50_ms", median(reads));
  report.e2e("write_p50_ms", median(writes));

  const double artifact_kb = static_cast<double>(disk.bytes) / 1024.0 /
                             static_cast<double>(std::max<std::uint64_t>(disk.entries, 1));
  report.exact["ht_throughput_x_puma"] = geomean(ht_ratio);
  report.exact["ll_latency_x_puma"] = geomean(ll_ratio);
  report.exact["mapping.evaluations"] = static_cast<double>(evaluations);
  report.exact["schedule.ops"] = static_cast<double>(ops);
  report.exact["cache.artifact_kb"] = artifact_kb;
  report.exact["cache.memory_hit_ratio"] = ratio("memory");
  report.exact["cache.disk_hit_ratio"] = ratio("disk");
  report.exact["cache.remote_hit_ratio"] = ratio("remote");
  report.exact["fleet.retries"] = retries;
  report.exact["reads"] = static_cast<double>(read_keys.size());
  report.exact["writes"] = static_cast<double>(write_keys.size());

  ProbeTotals totals;
  if (tracer.enabled()) {
    totals = replay_and_probe(args, read_keys, write_keys, fleet, stages);
  }
  fleet.stop();
  fs::remove_all(fleet.dir);
  fs::remove_all("replay-disk");
  if (!tracer.enabled()) return report;

  report.layer("cache.artifact_kb", artifact_kb);
  report.layer("cache.memory_hit_ratio", ratio("memory"));
  report.layer("cache.disk_hit_ratio", ratio("disk"));
  report.layer("cache.remote_hit_ratio", ratio("remote"));
  report.layer("fleet.retries", retries);
  report.layer("mapping.evaluations", static_cast<double>(evaluations));
  report.layer("schedule.ops", static_cast<double>(ops));
  fill_fleet_layers(report, totals, median(reads));
  return report;
}

}  // namespace perfbench
