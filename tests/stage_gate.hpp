// A pipeline observer that counts one stage's begins and holds the first
// of them, for the tests of in-flight dedup between identical jobs.

#ifndef PIMCOMP_TESTS_STAGE_GATE_HPP
#define PIMCOMP_TESTS_STAGE_GATE_HPP

#include <condition_variable>
#include <mutex>
#include <string>
#include <utility>

#include "core/pipeline.hpp"

namespace pimcomp {

/// Counts the begins of `stage` and holds the first of them inside its
/// observer callback until release(), so jobs submitted meanwhile provably
/// overlap the job it holds.
class StageGate : public PipelineObserver {
 public:
  explicit StageGate(std::string stage) : stage_(std::move(stage)) {}

  void on_stage_begin(const StageInfo& info) override {
    if (info.stage != stage_) return;
    std::unique_lock<std::mutex> lock(mutex_);
    if (++begins_ == 1) {
      held_ = true;
      changed_.notify_all();
      changed_.wait(lock, [this] { return released_; });
    }
  }

  void wait_until_held() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return held_; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    changed_.notify_all();
  }

  int begins() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return begins_;
  }

 private:
  const std::string stage_;
  mutable std::mutex mutex_;
  std::condition_variable changed_;
  int begins_ = 0;
  bool held_ = false;
  bool released_ = false;
};

}  // namespace pimcomp

#endif  // PIMCOMP_TESTS_STAGE_GATE_HPP
