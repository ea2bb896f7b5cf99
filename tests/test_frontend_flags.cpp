// The shared frontend grammar: the integer-flag rule, the --jobs rule, and
// the daemon/router frontends rejecting bad flags before binding anything.

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "fleet/router.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"

namespace pimcomp {
namespace {

std::string flag_error(const std::string& flag, const std::string& token,
                       long long min, long long max) {
  try {
    parse_int_flag(flag, token, min, max);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(ParseIntFlag, AcceptsBothBoundsAndEverythingBetween) {
  EXPECT_EQ(parse_int_flag("--port", "0", 0, 65535), 0);
  EXPECT_EQ(parse_int_flag("--port", "65535", 0, 65535), 65535);
  EXPECT_EQ(parse_int_flag("--priority", "-1000", -1000, 1000), -1000);
  EXPECT_EQ(parse_int_flag("--seed", std::to_string(LLONG_MAX), 0, LLONG_MAX),
            LLONG_MAX);
}

TEST(ParseIntFlag, RejectsOneStepPastEitherBoundWithTheUnifiedMessage) {
  EXPECT_EQ(flag_error("--port", "65536", 0, 65535),
            "--port wants an integer in [0, 65535], got '65536'");
  EXPECT_EQ(flag_error("--priority", "-1001", -1000, 1000),
            "--priority wants an integer in [-1000, 1000], got '-1001'");
}

TEST(ParseIntFlag, RejectsGarbageEmptyAndOverflowingTokens) {
  for (const char* token : {"abc", "", "12x", "1.5", "99999999999999999999",
                            " 3", "\t5", "+80"}) {
    EXPECT_EQ(flag_error("--pop", token, 1, 1000000),
              std::string("--pop wants an integer in [1, 1000000], got '") +
                  token + "'")
        << token;
  }
}

TEST(ConnectEndpoint, RejectsASignedPortBeforeOpeningASocket) {
  try {
    serve::connect_endpoint("127.0.0.1:+80");
    FAIL() << "a '+'-signed port was accepted";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(std::string(e.what()),
              "bad port in endpoint '127.0.0.1:+80'");
  }
}

TEST(ParseJobsFlag, AutoIsZeroAndCountsAreBoundedToOneThrough1024) {
  EXPECT_EQ(serve::parse_jobs_flag("auto"), 0);
  EXPECT_EQ(serve::parse_jobs_flag("1"), 1);
  EXPECT_EQ(serve::parse_jobs_flag("1024"), 1024);
  for (const char* token : {"0", "1025", "-1", "Auto", ""}) {
    try {
      serve::parse_jobs_flag(token);
      ADD_FAILURE() << "accepted '" << token << "'";
    } catch (const ConfigError& e) {
      const std::string message = e.what();
      EXPECT_EQ(message.rfind(std::string("--jobs wants an integer in [1, "
                                          "1024], got '") +
                                  token + "'; use '--jobs auto'",
                              0),
                0u)
          << message;
    }
  }
}

/// Runs a frontend on `args` (program name excluded) and returns its exit
/// code together with what it printed on stderr.
template <typename Frontend>
std::pair<int, std::string> run_frontend(Frontend frontend,
                                         const std::string& program,
                                         std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  testing::internal::CaptureStderr();
  const int code =
      frontend(static_cast<int>(argv.size()), argv.data(), program);
  return {code, testing::internal::GetCapturedStderr()};
}

TEST(DaemonFrontend, BadValuesExitTwoWithTheUnifiedMessage) {
  const auto [port_code, port_err] =
      run_frontend(serve::run_daemon, "pimcompd", {"--port", "70000"});
  EXPECT_EQ(port_code, 2);
  EXPECT_EQ(port_err,
            "pimcompd: --port wants an integer in [0, 65535], got '70000'\n");

  const auto [readers_code, readers_err] = run_frontend(
      serve::run_daemon, "pimcompd",
      {"--unix", "/nonexistent/pimcompd.sock", "--readers", "0"});
  EXPECT_EQ(readers_code, 2);
  EXPECT_EQ(readers_err,
            "pimcompd: --readers wants an integer in [1, 64], got '0'\n");

  const auto [jobs_code, jobs_err] = run_frontend(
      serve::run_daemon, "pimcompd", {"--port", "0", "--jobs", "zero"});
  EXPECT_EQ(jobs_code, 2);
  EXPECT_NE(jobs_err.find("pimcompd: --jobs wants an integer in [1, 1024]"),
            std::string::npos)
      << jobs_err;
}

TEST(DaemonFrontend, MissingValuesUnknownFlagsAndNoEndpointPrintUsage) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--port"},
        std::vector<std::string>{"--unix", "/tmp/x.sock", "--readers"},
        std::vector<std::string>{"--unix", "/tmp/x.sock", "--bogus"},
        std::vector<std::string>{"--jobs", "2"}}) {
    const auto [code, err] = run_frontend(serve::run_daemon, "pimcompd", args);
    EXPECT_EQ(code, 2) << args.back();
    EXPECT_EQ(err.rfind("usage: pimcompd (--unix PATH | --port N", 0), 0u)
        << err;
  }
}

TEST(RouterFrontend, BadValuesExitTwoWithTheUnifiedMessage) {
  const auto [port_code, port_err] = run_frontend(
      fleet::run_router, "pimcomp_router",
      {"--port", "70000", "--backend", "unix:/nonexistent.sock"});
  EXPECT_EQ(port_code, 2);
  EXPECT_EQ(port_err,
            "pimcomp_router: --port wants an integer in [0, 65535], got "
            "'70000'\n");

  const auto [interval_code, interval_err] = run_frontend(
      fleet::run_router, "pimcomp_router",
      {"--unix", "/nonexistent/router.sock", "--backend",
       "unix:/nonexistent.sock", "--health-interval", "0"});
  EXPECT_EQ(interval_code, 2);
  EXPECT_EQ(interval_err,
            "pimcomp_router: --health-interval wants an integer in [1, "
            "3600], got '0'\n");
}

TEST(RouterFrontend, MissingValuesAndMissingBackendsPrintUsage) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--unix", "/tmp/r.sock", "--backend"},
        std::vector<std::string>{"--port", "0"},
        std::vector<std::string>{"--backend", "unix:/tmp/d.sock"}}) {
    const auto [code, err] =
        run_frontend(fleet::run_router, "pimcomp_router", args);
    EXPECT_EQ(code, 2);
    EXPECT_EQ(err.rfind("usage: pimcomp_router (--unix PATH | --port N", 0),
              0u)
        << err;
  }
}

}  // namespace
}  // namespace pimcomp
