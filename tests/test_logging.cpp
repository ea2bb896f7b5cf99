// Regression coverage for the Logger race fixed by the thread-safety
// audit: `level_` used to be a plain (non-atomic) static that set_level()
// wrote while session workers called log() — a data race TSan flags even
// when the torn value happens to be benign. With the atomic in place this
// hammer must run clean under the TSan CI leg, and the threshold semantics
// it asserts must hold on every build.
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/thread_annotations.hpp"

namespace pimcomp {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = Logger::level(); }
  void TearDown() override { Logger::set_level(previous_); }

 private:
  LogLevel previous_ = LogLevel::kWarn;
};

TEST_F(LoggingTest, ThresholdFiltersBelowLevel) {
  Logger::set_level(LogLevel::kError);
  EXPECT_EQ(Logger::level(), LogLevel::kError);

  std::ostringstream captured;
  auto* old = std::cerr.rdbuf(captured.rdbuf());
  Logger::log(LogLevel::kWarn, "filtered");
  Logger::log(LogLevel::kError, "emitted");
  std::cerr.rdbuf(old);

  EXPECT_EQ(captured.str(), "[pimcomp ERROR] emitted\n");
}

TEST_F(LoggingTest, OffSilencesEverything) {
  Logger::set_level(LogLevel::kOff);
  std::ostringstream captured;
  auto* old = std::cerr.rdbuf(captured.rdbuf());
  Logger::log(LogLevel::kError, "dropped");
  std::cerr.rdbuf(old);
  EXPECT_TRUE(captured.str().empty());
}

TEST_F(LoggingTest, ConcurrentSetLevelAndLogIsRaceFree) {
  // The regression proper: writers flip the threshold while readers log.
  // Pre-fix, TSan reports a data race on level_ here.
  std::ostringstream captured;
  auto* old = std::cerr.rdbuf(captured.rdbuf());
  // Start from a threshold kWarn cannot pass: at the default (kWarn) the
  // writer could log before the flipper's first set_level.
  Logger::set_level(LogLevel::kError);
  Thread flipper([] {
    for (int i = 0; i < 2000; ++i) {
      Logger::set_level(i % 2 == 0 ? LogLevel::kOff : LogLevel::kError);
    }
  });
  Thread writer([] {
    for (int i = 0; i < 2000; ++i) {
      Logger::log(LogLevel::kWarn, "spin");
    }
  });
  flipper.join();
  writer.join();
  std::cerr.rdbuf(old);
  // kWarn never passes either threshold the flipper installs.
  EXPECT_TRUE(captured.str().empty());
}

}  // namespace
}  // namespace pimcomp
