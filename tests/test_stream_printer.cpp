#include "core/stream_printer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/compiler.hpp"
#include "graph/zoo/zoo.hpp"

namespace pimcomp {
namespace {

class PrinterFixture : public ::testing::Test {
 protected:
  PrinterFixture() {
    Graph g = zoo::squeezenet(64);
    compiler_ = std::make_unique<Compiler>(std::move(g),
                                           HardwareConfig::puma_default());
    CompileOptions opt;
    opt.mapper = "puma";
    result_ = std::make_unique<CompileResult>(compiler_->compile(opt));
  }

  std::unique_ptr<Compiler> compiler_;
  std::unique_ptr<CompileResult> result_;
};

TEST_F(PrinterFixture, StreamListsOpsWithNodeNames) {
  int busiest = 0;
  std::size_t most = 0;
  for (int c = 0; c < result_->schedule.core_count(); ++c) {
    const auto n =
        result_->schedule.programs[static_cast<std::size_t>(c)].size();
    if (n > most) {
      most = n;
      busiest = c;
    }
  }
  const std::string text =
      print_core_stream(result_->schedule, compiler_->graph(), busiest, 32);
  EXPECT_NE(text.find("core " + std::to_string(busiest)), std::string::npos);
  EXPECT_NE(text.find("MVM"), std::string::npos);
  EXPECT_NE(text.find("xbars"), std::string::npos);
  // Truncation notice when the stream is longer than the limit.
  if (most > 32) {
    EXPECT_NE(text.find("more ops"), std::string::npos);
  }
}

TEST_F(PrinterFixture, UnlimitedDumpListsEverything) {
  const std::string text =
      print_core_stream(result_->schedule, compiler_->graph(), 0, 0);
  EXPECT_EQ(text.find("more ops"), std::string::npos);
}

TEST_F(PrinterFixture, RejectsBadCore) {
  EXPECT_THROW(
      print_core_stream(result_->schedule, compiler_->graph(), 9999),
      ConfigError);
  EXPECT_THROW(print_core_stream(result_->schedule, compiler_->graph(), -1),
               ConfigError);
}

TEST_F(PrinterFixture, SummaryAggregates) {
  const std::string text = print_schedule_summary(result_->schedule);
  EXPECT_NE(text.find("MVM"), std::string::npos);
  EXPECT_NE(text.find("busiest core"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(result_->schedule.total_ops)),
            std::string::npos);
}

}  // namespace
}  // namespace pimcomp
