#include "lint.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace galaxy::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(GALAXY_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Diagnostic> LintFixture(const std::string& name,
                                    const std::string& synthetic_path) {
  return LintFile(synthetic_path, ReadFixture(name));
}

size_t CountRule(const std::vector<Diagnostic>& diags,
                 const std::string& rule) {
  size_t n = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) ++n;
  }
  return n;
}

std::set<size_t> LinesOfRule(const std::vector<Diagnostic>& diags,
                             const std::string& rule) {
  std::set<size_t> lines;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) lines.insert(d.line);
  }
  return lines;
}

// ---- per-rule fixtures ----------------------------------------------------

TEST(LintRules, RawMutexFlagsStdPrimitives) {
  auto diags = LintFixture("raw_mutex_bad.h", "src/server/raw_mutex_bad.h");
  EXPECT_GE(CountRule(diags, "raw-mutex"), 2u);  // lock_guard/mutex + member
  EXPECT_TRUE(LinesOfRule(diags, "raw-mutex").count(15))
      << "the std::mutex member declaration must be flagged";
}

TEST(LintRules, RawMutexExemptsTheWrapperItself) {
  auto diags =
      LintFixture("raw_mutex_bad.h", "src/common/mutex.h");
  EXPECT_EQ(CountRule(diags, "raw-mutex"), 0u);
}

TEST(LintRules, BudgetChargeFlagsUnchargedNestedLoops) {
  auto diags = LintFixture("budget_bad.cc", "src/core/algorithm_demo.cc");
  ASSERT_EQ(CountRule(diags, "budget-charge"), 1u);
  EXPECT_EQ(*LinesOfRule(diags, "budget-charge").begin(), 9u)
      << "diagnostic anchors where nesting first reaches depth 2";
}

TEST(LintRules, BudgetChargeAcceptsChargingFunction) {
  auto diags = LintFixture("budget_good.cc", "src/core/algorithm_demo.cc");
  EXPECT_EQ(CountRule(diags, "budget-charge"), 0u);
}

TEST(LintRules, BudgetChargeOnlyAppliesToKernelFiles) {
  auto diags = LintFixture("budget_bad.cc", "src/core/other_file.cc");
  EXPECT_EQ(CountRule(diags, "budget-charge"), 0u);
}

TEST(LintRules, BannedCallsFlagged) {
  auto diags = LintFixture("banned_bad.cc", "src/server/banned_bad.cc");
  // rand, strcpy, sprintf, sleep_for — but not the member gen.rand().
  EXPECT_EQ(CountRule(diags, "banned-call"), 4u);
}

TEST(LintRules, SleepForAllowedInTestsAndBench) {
  auto diags = LintFixture("banned_bad.cc", "tests/server/banned_bad.cc");
  EXPECT_EQ(CountRule(diags, "banned-call"), 3u);  // sleep_for tolerated
  diags = LintFixture("banned_bad.cc", "bench/banned_bad.cc");
  EXPECT_EQ(CountRule(diags, "banned-call"), 3u);
}

TEST(LintRules, RawFileIoFlagsWriteSideCalls) {
  auto diags =
      LintFixture("raw_file_io_bad.cc", "src/server/raw_file_io_bad.cc");
  // open, ::write, fsync, fdatasync, ftruncate, std::fopen, std::ofstream —
  // not the read-side ifstream, member calls, or the suppressed ::write.
  EXPECT_EQ(CountRule(diags, "raw-file-io"), 7u);
}

TEST(LintRules, RawFileIoExemptsStorageTestsAndBench) {
  for (const char* path : {"src/storage/raw_file_io_bad.cc",
                           "tests/storage/raw_file_io_bad.cc",
                           "bench/raw_file_io_bad.cc"}) {
    auto diags = LintFixture("raw_file_io_bad.cc", path);
    EXPECT_EQ(CountRule(diags, "raw-file-io"), 0u) << path;
  }
}

TEST(LintRules, BlockingSocketIoFlagsRawSocketCalls) {
  auto diags = LintFixture("socket_io_bad.cc", "src/server/socket_io_bad.cc");
  // ::recv, ::send, recvfrom, sendto, ::accept, ::connect — not the member
  // calls, the declaration, or the suppressed ::recv.
  EXPECT_EQ(CountRule(diags, "blocking-socket-io"), 6u);
}

TEST(LintRules, BlockingSocketIoExemptsEventLoopTestsAndBench) {
  for (const char* path : {"src/server/event_loop.cc",
                           "tests/server/socket_io_bad.cc",
                           "bench/socket_io_bad.cc"}) {
    auto diags = LintFixture("socket_io_bad.cc", path);
    EXPECT_EQ(CountRule(diags, "blocking-socket-io"), 0u) << path;
  }
}

TEST(LintRules, RowMajorAccessFlagsBoxedRowCalls) {
  auto diags = LintFixture("row_major_bad.cc", "src/sql/row_major_bad.cc");
  // MaterializeRow + DebugRows; the suppressed seeding call is exempt.
  EXPECT_EQ(CountRule(diags, "row-major-access"), 2u);
  EXPECT_TRUE(LinesOfRule(diags, "row-major-access").count(9));
  EXPECT_TRUE(LinesOfRule(diags, "row-major-access").count(15));
}

TEST(LintRules, RowMajorAccessExemptsRelationAndTests) {
  for (const char* path : {"src/relation/row_major_bad.cc",
                           "tests/sql/row_major_bad.cc"}) {
    auto diags = LintFixture("row_major_bad.cc", path);
    EXPECT_EQ(CountRule(diags, "row-major-access"), 0u) << path;
  }
}

TEST(LintRules, NakedNewFlagged) {
  auto diags = LintFixture("naked_new_bad.cc", "src/core/naked_new_bad.cc");
  EXPECT_EQ(CountRule(diags, "naked-new"), 1u);
}

TEST(LintRules, StatusConsumedFlagsDroppedSameFileCall) {
  auto diags = LintFixture("status_bad.cc", "src/sql/status_bad.cc");
  ASSERT_EQ(CountRule(diags, "status-consumed"), 1u);
  EXPECT_EQ(*LinesOfRule(diags, "status-consumed").begin(), 11u)
      << "only the bare Flush(fd); statement is a drop; the assignment and "
         "the return are consumers";
}

TEST(LintRules, PragmaOnceRequiredInHeaders) {
  auto diags = LintFixture("pragma_once_bad.h", "src/sql/pragma_once_bad.h");
  EXPECT_EQ(CountRule(diags, "pragma-once"), 1u);
  // The same content as a .cc file is not a header: no finding.
  diags = LintFile("src/sql/not_a_header.cc", ReadFixture("pragma_once_bad.h"));
  EXPECT_EQ(CountRule(diags, "pragma-once"), 0u);
}

TEST(LintRules, IostreamBannedInCoreOnly) {
  auto diags = LintFixture("iostream_bad.cc", "src/core/iostream_bad.cc");
  EXPECT_EQ(CountRule(diags, "iostream-core"), 1u);
  diags = LintFixture("iostream_bad.cc", "src/sql/iostream_bad.cc");
  EXPECT_EQ(CountRule(diags, "iostream-core"), 0u);
}

TEST(LintRules, FuzzDriversOnlyInSrcTesting) {
  for (const char* path :
       {"src/server/http_fuzz.cc", "src/storage/wal_fuzz.h"}) {
    auto diags = LintFixture("misplaced_fuzz_bad.cc", path);
    EXPECT_EQ(CountRule(diags, "fuzz-outside-testing"), 1u) << path;
  }
  for (const char* path :
       {"src/testing/http_fuzz.cc", "src/testing/wal_fuzz.h",
        "tests/sql/parser_fuzz_test.cc", "tools/galaxy_fuzz.cpp",
        "src/sql/fuzzy_match.cc"}) {
    auto diags = LintFixture("misplaced_fuzz_bad.cc", path);
    EXPECT_EQ(CountRule(diags, "fuzz-outside-testing"), 0u) << path;
  }
}

// ---- suppressions ---------------------------------------------------------

TEST(LintSuppressions, SameLineAndPrecedingCommentBlock) {
  auto diags = LintFixture("suppressed.cc", "src/core/suppressed.cc");
  EXPECT_EQ(CountRule(diags, "naked-new"), 0u);
}

TEST(LintSuppressions, FileLevelAllow) {
  auto diags = LintFixture("suppressed_file.cc", "src/core/suppressed_file.cc");
  EXPECT_EQ(CountRule(diags, "naked-new"), 0u);
}

TEST(LintSuppressions, SuppressionIsPerRule) {
  // An allow() for one rule must not silence another on the same line.
  std::string src =
      "struct N {};\n"
      "N* f() { return new N(); }  // galaxy-lint: allow(banned-call)\n";
  auto diags = LintFile("src/core/x.cc", src);
  EXPECT_EQ(CountRule(diags, "naked-new"), 1u);
}

// ---- clean file and lexer behaviour ---------------------------------------

TEST(LintClean, RealisticFileIsClean) {
  auto diags = LintFixture("clean.cc", "src/core/clean.cc");
  EXPECT_TRUE(diags.empty())
      << (diags.empty() ? std::string() : diags[0].ToString());
}

TEST(LintLexer, IgnoresStringsCommentsAndRawStrings) {
  std::string src =
      "// strcpy(a, b) in a comment\n"
      "/* new int in a block comment */\n"
      "const char* s = \"rand() sprintf() new\";\n"
      "const char* r = R\"(strcpy(x, y) new int)\";\n"
      "char c = 'n';\n";
  auto diags = LintFile("src/core/lexer_probe.cc", src);
  EXPECT_TRUE(diags.empty());
}

TEST(LintLexer, DiagnosticFormat) {
  std::string src = "struct N {};\nN* f() { return new N(); }\n";
  auto diags = LintFile("src/core/fmt.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].ToString().rfind("src/core/fmt.cc:2: error: [naked-new]",
                                      0),
            0u);
}

TEST(LintApi, RuleNamesStable) {
  auto names = RuleNames();
  EXPECT_EQ(names.size(), 11u);
}

}  // namespace
}  // namespace galaxy::lint
