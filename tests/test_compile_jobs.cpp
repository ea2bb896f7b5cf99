// The asynchronous job API (PR 4): submit() -> CompileJob handles with
// poll()/wait()/cancel() and completion callbacks on a resident worker
// pool. Covers the cancellation contract end to end — cancel before start,
// cancel mid-mapping (the GA observes the token within one generation),
// session destruction with outstanding jobs — plus priority ordering,
// ErrorKind classification, and a mixed submit/cancel hammering from
// several threads (kept race-free by the TSan CI job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"

namespace pimcomp {
namespace {

Graph small_cnn() {
  GraphBuilder b("jobs-cnn", {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.max_pool(x, 2, 2, 0, "pool1");
  x = b.conv_relu(x, 16, 3, 1, 1, "conv2");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  b.softmax(x, "prob");
  return b.build();
}

CompileOptions tiny_options(std::uint64_t seed = 1) {
  CompileOptions options;
  options.mode = PipelineMode::kHighThroughput;
  options.ga.population = 8;
  options.ga.generations = 4;
  options.ga.seed_baseline = false;
  options.seed = seed;
  return options;
}

/// A GA budget that would run ~half a minute uncancelled (the tiny CNN
/// spends tens of microseconds per generation) — long enough that every
/// test below provably relies on cancellation, short enough to stay
/// bounded if cancellation ever regressed.
CompileOptions long_options(std::uint64_t seed = 1) {
  CompileOptions options = tiny_options(seed);
  options.ga.generations = 1'000'000;
  return options;
}

/// A hardware config no model fits: partitioning throws CapacityError.
HardwareConfig one_xbar_hardware() {
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 1;
  hw.cores_per_chip = 1;
  hw.xbars_per_core = 1;
  return hw;
}

/// Flags when the mapping stage of a given scenario label starts, and
/// counts stage begins per label (callbacks are serialized by the session).
class StageWatcher : public PipelineObserver {
 public:
  void on_stage_begin(const StageInfo& info) override {
    std::lock_guard<std::mutex> lock(mutex_);
    begins_.push_back(info.scenario + "/" + info.stage);
    if (info.stage == stage_names::kMapping) mapping_started_ = true;
  }

  bool mapping_started() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return mapping_started_;
  }

  int begins_for(const std::string& label) const {
    std::lock_guard<std::mutex> lock(mutex_);
    int count = 0;
    for (const std::string& entry : begins_) {
      if (entry.rfind(label + "/", 0) == 0) ++count;
    }
    return count;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> begins_;
  bool mapping_started_ = false;
};

TEST(CompileJobs, SubmitMatchesSynchronousCompile) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  const CompileResult direct = session.compile(tiny_options(7));

  CompilerSession fresh(small_cnn(), HardwareConfig::puma_default());
  CompileJob job = fresh.submit(tiny_options(7), "async");
  ASSERT_TRUE(job.valid());
  const ScenarioOutcome& outcome = job.wait();
  EXPECT_EQ(job.poll(), JobStatus::kDone);
  EXPECT_TRUE(job.done());
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_EQ(outcome.label, "async");
  EXPECT_EQ(outcome.error_kind, ErrorKind::kNone);
  EXPECT_EQ(outcome.result->solution.encode(), direct.solution.encode());
  EXPECT_EQ(outcome.result->estimated_fitness, direct.estimated_fitness);
}

TEST(CompileJobs, WaitAfterCompletionIsIdempotent) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  CompileJob job = session.submit(tiny_options(), "once");
  const ScenarioOutcome& first = job.wait();
  const ScenarioOutcome& again = job.wait();
  // Same terminal outcome object, not a recomputation.
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(job.poll(), JobStatus::kDone);
}

TEST(CompileJobs, WaitOnATemporaryHandleOwnsItsOutcome) {
  // `submit(...).wait()` waits on a handle that dies at the end of the
  // statement. Once the session is gone too (its workers joined, its job
  // registry dropped), nothing of the job is left but what wait()
  // returned: on a temporary handle that must be the outcome itself, not
  // a reference into the freed job state (AddressSanitizer reports the
  // latter as a heap-use-after-free).
  auto session = std::make_unique<CompilerSession>(
      small_cnn(), HardwareConfig::puma_default());
  const auto& outcome = session->submit(tiny_options(5), "temporary").wait();
  session.reset();
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_EQ(outcome.label, "temporary");
  EXPECT_EQ(outcome.error_kind, ErrorKind::kNone);
  EXPECT_GT(outcome.result->estimated_fitness, 0.0);
}

TEST(CompileJobs, CancelBeforeStartNeverRunsAStage) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  StageWatcher watcher;
  session.set_observer(&watcher);
  session.set_jobs(1);  // one worker: the second job is provably queued

  CompileJob running = session.submit(long_options(), "running");
  CompileJob queued = session.submit(tiny_options(), "queued");
  EXPECT_TRUE(queued.cancel());
  EXPECT_TRUE(running.cancel());  // unblock the worker promptly

  const ScenarioOutcome& outcome = queued.wait();
  EXPECT_EQ(queued.poll(), JobStatus::kCancelled);
  EXPECT_TRUE(outcome.cancelled());
  EXPECT_EQ(outcome.error_kind, ErrorKind::kCancelled);
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.error.find("cancelled"), std::string::npos);
  running.wait();

  // The cancelled-while-queued job never reached any pipeline stage.
  EXPECT_EQ(watcher.begins_for("queued"), 0);
  // cancel() after the fact reports "too late".
  EXPECT_FALSE(queued.cancel());
}

TEST(CompileJobs, CancelMidMappingIsObservedWithinOneGeneration) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  StageWatcher watcher;
  session.set_observer(&watcher);

  CompileJob job = session.submit(long_options(), "long");
  // Wait until the GA is demonstrably inside the mapping stage.
  while (!watcher.mapping_started()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(job.poll(), JobStatus::kRunning);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(job.cancel());
  const ScenarioOutcome& outcome = job.wait();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_TRUE(outcome.cancelled());
  // The token lands inside the GA: at a generation boundary or, on a slow
  // (sanitized) build, still during population initialization.
  EXPECT_NE(outcome.error.find("cancelled"), std::string::npos)
      << outcome.error;
  // The full budget would run tens of seconds; the token must be observed
  // within one generation (microseconds) plus scheduling noise.
  EXPECT_LT(seconds, 5.0);
}

TEST(CompileJobs, CancelLandsWithinOneIslandGenerationAtSixteenIslands) {
  // Island-model regression: the cancel token is polled per ISLAND
  // generation, so splitting the population across 16 islands must not
  // stretch cancellation latency — every island observes the token inside
  // its own population/16 sweep, and parallel_for rethrows the first
  // island's CancelledError after the rest retire.
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  StageWatcher watcher;
  session.set_observer(&watcher);

  CompileOptions options = long_options();
  options.ga.population = 64;  // 4 individuals per island
  options.ga.islands = 16;
  CompileJob job = session.submit(options, "archipelago");
  while (!watcher.mapping_started()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(job.cancel());
  const ScenarioOutcome& outcome = job.wait();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_TRUE(outcome.cancelled());
  EXPECT_NE(outcome.error.find("cancelled"), std::string::npos)
      << outcome.error;
  EXPECT_LT(seconds, 5.0);
}

TEST(CompileJobs, SessionDestructionCancelsOutstandingJobs) {
  std::vector<CompileJob> jobs;
  {
    CompilerSession session(small_cnn(), HardwareConfig::puma_default());
    session.set_jobs(1);
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(session.submit(long_options(static_cast<std::uint64_t>(
                                        i + 1)),
                                    "doomed-" + std::to_string(i)));
    }
    EXPECT_GT(session.outstanding_jobs(), 0u);
    // ~CompilerSession cancels, finalizes, and joins before returning.
  }
  for (const CompileJob& job : jobs) {
    EXPECT_TRUE(job.done());
    const ScenarioOutcome& outcome = job.wait();  // returns instantly
    EXPECT_EQ(job.poll(), JobStatus::kCancelled);
    EXPECT_TRUE(outcome.cancelled()) << outcome.error;
  }
}

TEST(CompileJobs, CompletionCallbackSeesTheOutcomeAndMaySubmitMore) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  std::atomic<int> calls{0};
  std::atomic<bool> callback_ok{false};

  JobOptions options;
  options.on_complete = [&](const ScenarioOutcome& outcome) {
    calls.fetch_add(1);
    callback_ok.store(outcome.ok());
  };
  CompileJob job = session.submit(
      Scenario{"cb", tiny_options(), std::nullopt}, std::move(options));
  job.wait();
  // wait() unblocks before/at the callback; outstanding_jobs() drains after.
  while (session.outstanding_jobs() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(callback_ok.load());

  // A follow-up submitted from a completion callback compiles normally
  // (the helping wait keeps a one-worker session deadlock-free).
  std::atomic<bool> followup_ok{false};
  JobOptions chained;
  chained.on_complete = [&](const ScenarioOutcome& outcome) {
    if (!outcome.ok()) return;
    CompileJob next = session.submit(tiny_options(99), "follow-up");
    followup_ok.store(next.wait().ok());
  };
  session
      .submit(Scenario{"chain", tiny_options(3), std::nullopt},
              std::move(chained))
      .wait();
  while (session.outstanding_jobs() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(followup_ok.load());
}

TEST(CompileJobs, HigherPriorityJumpsTheQueue) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  session.set_jobs(1);

  std::mutex order_mutex;
  std::vector<std::string> completion_order;
  const auto record = [&](const std::string& label) {
    JobOptions options;
    options.on_complete = [&, label](const ScenarioOutcome&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      completion_order.push_back(label);
    };
    return options;
  };

  // Occupy the single worker, then queue a normal and a high-priority job.
  CompileOptions busy = tiny_options();
  busy.ga.generations = 20'000;  // ~1 s: both rivals are queued meanwhile
  CompileJob blocker = session.submit(
      Scenario{"blocker", busy, std::nullopt}, record("blocker"));
  // The worker must own the blocker before the rivals join the queue, or
  // its first pop would take the high-priority job instead.
  while (blocker.poll() == JobStatus::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  JobOptions normal = record("normal");
  normal.priority = 0;
  CompileJob low =
      session.submit(Scenario{"normal", tiny_options(2), std::nullopt},
                     std::move(normal));
  JobOptions urgent = record("urgent");
  urgent.priority = 5;
  CompileJob high = session.submit(
      Scenario{"urgent", tiny_options(3), std::nullopt}, std::move(urgent));

  ASSERT_TRUE(blocker.wait().ok());
  ASSERT_TRUE(low.wait().ok());
  ASSERT_TRUE(high.wait().ok());
  while (session.outstanding_jobs() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::lock_guard<std::mutex> lock(order_mutex);
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], "blocker");
  EXPECT_EQ(completion_order[1], "urgent");  // priority 5 beats FIFO
  EXPECT_EQ(completion_order[2], "normal");
}

TEST(CompileJobs, ErrorKindsClassifyFailures) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());

  CompileJob infeasible = session.submit(
      Scenario{"cramped", tiny_options(), one_xbar_hardware()});
  CompileOptions bad = tiny_options();
  bad.mapper = "not-a-mapper";
  CompileJob misconfigured = session.submit(bad, "typo");

  EXPECT_EQ(infeasible.wait().error_kind, ErrorKind::kCapacity);
  EXPECT_EQ(infeasible.poll(), JobStatus::kDone);  // failed, not cancelled
  EXPECT_EQ(misconfigured.wait().error_kind, ErrorKind::kConfig);

  // The wire spellings round-trip.
  EXPECT_EQ(to_string(ErrorKind::kCapacity), "capacity");
  EXPECT_EQ(error_kind_from_string("capacity"), ErrorKind::kCapacity);
  EXPECT_EQ(error_kind_from_string("config"), ErrorKind::kConfig);
  EXPECT_EQ(error_kind_from_string("cancelled"), ErrorKind::kCancelled);
  EXPECT_EQ(error_kind_from_string(""), ErrorKind::kNone);
  EXPECT_EQ(error_kind_from_string("from-the-future"), ErrorKind::kInternal);
}

TEST(CompileJobs, CancelAllJobsCancelsEverythingOutstanding) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  session.set_jobs(1);
  std::vector<CompileJob> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(session.submit(long_options(static_cast<std::uint64_t>(
                                      i + 1)),
                                  "bulk-" + std::to_string(i)));
  }
  EXPECT_GE(session.cancel_all_jobs(), 3u);
  for (const CompileJob& job : jobs) {
    EXPECT_TRUE(job.wait().cancelled()) << job.label();
  }
  session.wait_jobs_idle();
  EXPECT_EQ(session.outstanding_jobs(), 0u);
}

TEST(CompileJobs, MixedSubmitAndCancelFromManyThreads) {
  // Four submitters racing four cancellers over one shared session; every
  // job must reach a coherent terminal state (ok or cancelled — seeds are
  // distinct so nothing else can fail). TSan keeps this honest in CI.
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  session.set_jobs(2);

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 6;
  std::mutex jobs_mutex;
  std::vector<CompileJob> jobs;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        const auto seed =
            static_cast<std::uint64_t>(t * kJobsPerThread + i + 1);
        CompileOptions options = tiny_options(seed);
        if (i % 2 == 0) options.ga.generations = 50'000;  // cancel fodder
        CompileJob job = session.submit(options, "t" + std::to_string(t) +
                                                     "-" + std::to_string(i));
        if (i % 2 == 0) job.cancel();
        std::lock_guard<std::mutex> lock(jobs_mutex);
        jobs.push_back(std::move(job));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  int ok = 0;
  int cancelled = 0;
  for (const CompileJob& job : jobs) {
    const ScenarioOutcome& outcome = job.wait();
    if (outcome.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(outcome.cancelled())
          << job.label() << ": " << outcome.error;
      ++cancelled;
    }
  }
  EXPECT_EQ(ok + cancelled, kThreads * kJobsPerThread);
  // Every even job was cancelled pre- or mid-flight; the odd ones ran
  // uncontested. (A racy even job may still have finished first, but the
  // bulk must land as cancellations.)
  EXPECT_GE(cancelled, kThreads);
  EXPECT_GE(ok, kThreads);
}

TEST(CompileJobs, SetJobsWhileAnotherThreadSubmits) {
  // The worker count is read under the job lock by every submit (it sizes
  // the pool); resizing from another thread meanwhile must be race-free.
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  std::thread submitter([&session] {
    for (int i = 0; i < 16; ++i) {
      const CompileJob job =
          session.submit(tiny_options(), "S" + std::to_string(i));
      EXPECT_TRUE(job.wait().ok()) << job.wait().error;
    }
  });
  for (int i = 0; i < 64; ++i) {
    session.set_jobs(1 + i % 3);
    EXPECT_GE(session.jobs(), 1);
    std::this_thread::yield();
  }
  submitter.join();
  session.set_jobs(2);
  EXPECT_EQ(session.jobs(), 2);
}

TEST(CompileJobs, ResidentWorkersSurviveAcrossBatches) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  session.set_jobs(2);
  // Two back-to-back batches reuse the same resident pool; the second
  // batch's identical scenario hits the mapping cache warmed by the first.
  const std::vector<ScenarioOutcome> first =
      session.compile_all({Scenario{"warm", tiny_options(), std::nullopt}});
  ASSERT_TRUE(first[0].ok());

  const std::vector<ScenarioOutcome> second =
      session.compile_all({Scenario{"hit", tiny_options(), std::nullopt}});
  ASSERT_TRUE(second[0].ok());
  EXPECT_EQ(session.mapping_cache_hits(), 1u);
  EXPECT_EQ(second[0].result->solution.encode(),
            first[0].result->solution.encode());
}

}  // namespace
}  // namespace pimcomp
