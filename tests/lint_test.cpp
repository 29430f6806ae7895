// The lint layer's own tests: every violation fixture must trip its rule
// (non-zero exit), the clean fixtures must not, the diagnostic text must
// match the checked-in golden byte for byte, and the real src/ tree must
// hold the zero-warning baseline. Paths and the interpreter arrive as
// compile definitions from CMake (NEXUSPP_LINT_* / NEXUSPP_PYTHON); when
// no Python interpreter was found at configure time the whole suite
// skips rather than fails.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef NEXUSPP_LINT_SCRIPT
#define NEXUSPP_LINT_SCRIPT ""
#endif
#ifndef NEXUSPP_LINT_FIXTURES
#define NEXUSPP_LINT_FIXTURES ""
#endif
#ifndef NEXUSPP_LINT_SRC
#define NEXUSPP_LINT_SRC ""
#endif
#ifndef NEXUSPP_PYTHON
#define NEXUSPP_PYTHON ""
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout only (diagnostics go there; summary to stderr)
};

/// Runs the linter over `target` with the fixture directory as cwd so
/// reported paths match the golden file's relative form.
RunResult run_lint(const std::string& target, const std::string& cwd) {
  const std::string command = "cd '" + cwd + "' && '" + NEXUSPP_PYTHON +
                              "' '" + NEXUSPP_LINT_SCRIPT + "' " + target +
                              " 2>/dev/null";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  std::size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(NEXUSPP_PYTHON).empty()) {
      GTEST_SKIP() << "no python3 found at configure time";
    }
  }
  const std::string fixtures_ = NEXUSPP_LINT_FIXTURES;
};

TEST_F(LintTest, EachViolationFixtureExitsNonZero) {
  for (const char* fixture :
       {"exec/bad_atomic_order.cpp", "exec/hot_path_alloc.cpp",
        "exec/bad_header.hpp", "exec/raw_sync.cpp",
        "obs/missing_hot_path.cpp"}) {
    const auto result = run_lint(fixture, fixtures_);
    EXPECT_EQ(result.exit_code, 1) << fixture << " should trip its rule";
    EXPECT_FALSE(result.output.empty()) << fixture;
  }
}

TEST_F(LintTest, CleanFixturesExitZero) {
  const auto result = run_lint(
      "exec/clean.cpp exec/clean.hpp obs/clean_hot_path.cpp", fixtures_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.output.empty()) << "unexpected: " << result.output;
}

TEST_F(LintTest, ObsHotPathFlagsOnlyTheDefinition) {
  // One violation, on the unannotated definition line — the declaration
  // above it and the call site below must not be flagged.
  const auto result = run_lint("obs/missing_hot_path.cpp", fixtures_);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("[obs-hot-path]"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("[obs-hot-path]"),
            result.output.rfind("[obs-hot-path]"))
      << "expected exactly one obs-hot-path diagnostic:\n" << result.output;
}

TEST_F(LintTest, DiagnosticsMatchGolden) {
  const auto result = run_lint("exec", fixtures_);
  EXPECT_EQ(result.exit_code, 1);
  std::ifstream golden(fixtures_ + "/expected_output.txt");
  ASSERT_TRUE(golden.is_open()) << "missing expected_output.txt";
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(result.output, want.str());
}

TEST_F(LintTest, FullSourceTreeHoldsZeroWarningBaseline) {
  const auto result = run_lint(std::string("'") + NEXUSPP_LINT_SRC + "'",
                               fixtures_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST_F(LintTest, RuleFilterRestrictsToOneRule) {
  // --rule atomic-order over the hot-path fixture: no atomic in it, so
  // the filtered run is clean even though the file violates another rule.
  const auto filtered =
      run_lint("--rule atomic-order exec/hot_path_alloc.cpp", fixtures_);
  EXPECT_EQ(filtered.exit_code, 0) << filtered.output;
  const auto full = run_lint("exec/hot_path_alloc.cpp", fixtures_);
  EXPECT_EQ(full.exit_code, 1);
}

}  // namespace
