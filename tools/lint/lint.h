#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// galaxy_lint — a dependency-free C++ source checker for the invariants
/// this repository cares about but no compiler enforces. It lexes each
/// translation unit into a token stream (comments, string/char literals and
/// preprocessor lines are recognised, so rules never fire inside them) and
/// runs a set of small per-rule matchers over the stream.
///
/// Rules (see tools/README.md for the full catalog and rationale):
///   raw-mutex        std:: synchronization primitives outside the annotated
///                    wrapper in src/common/mutex.h.
///   budget-charge    nested record-pair loops in src/core/algorithm_*.cc /
///                    count_kernel.cc whose function shows no evidence of
///                    charging the ExecutionContext budget.
///   banned-call      rand, strcpy, strcat, sprintf, vsprintf, gets; plus
///                    std::this_thread::sleep_for outside tests/ and bench/.
///   raw-file-io      write-side file I/O (fopen/open/write/fsync/...,
///                    std::ofstream/std::fstream) outside src/storage/ —
///                    durable writes must go through the storage Env seam.
///                    tests/ and bench/ are exempt.
///   blocking-socket-io
///                    raw socket calls (recv/send/accept/connect families)
///                    outside src/server/event_loop.* — socket I/O must run
///                    non-blocking on the EventLoop; the event engine's own
///                    call sites carry reviewed allow-file suppressions.
///                    tests/ and bench/ are exempt.
///   row-major-access Table::MaterializeRow / Table::DebugRows outside
///                    src/relation/ and tests/ — the Table is column-major;
///                    execution paths must read typed columns, not boxed
///                    rows.
///   naked-new        a `new` expression (own memory with containers or
///                    std::make_unique instead).
///   status-consumed  a statement that calls a Status-returning function
///                    declared in the same file and drops the result.
///   pragma-once      a header without `#pragma once`.
///   iostream-core    `#include <iostream>` inside src/core/.
///   fuzz-outside-testing
///                    a `*_fuzz.*` file under src/ outside src/testing/ —
///                    fuzz drivers are test code, not production library
///                    code.
///
/// Suppressions: `// galaxy-lint: allow(rule)` on the offending line or in
/// the comment block directly above it; `// galaxy-lint: allow-file(rule)`
/// anywhere in the file disables the rule for the whole file. Both forms
/// also accept a comma-separated rule list.
namespace galaxy::lint {

/// One finding: `path:line: error: [rule] message`.
struct Diagnostic {
  std::string path;
  size_t line = 0;
  std::string rule;
  std::string message;

  std::string ToString() const;
};

/// Token kinds produced by the lexer. Comments are not emitted as tokens;
/// they are collected separately for suppression handling.
enum class TokenKind {
  kIdentifier,   ///< identifiers and keywords (no keyword table needed)
  kNumber,       ///< numeric literal
  kString,       ///< string literal (including raw strings), text dropped
  kCharLiteral,  ///< character literal, text dropped
  kPunct,        ///< one operator/punctuator, longest-match ("::", "->", ...)
  kPreproc,      ///< one full preprocessor directive, continuations joined
};

struct Token {
  TokenKind kind;
  std::string text;
  size_t line = 0;  ///< 1-based line where the token starts
};

/// The lexed form of one file: the token stream plus the side tables the
/// suppression mechanism needs.
struct LexedFile {
  std::vector<Token> tokens;
  /// line -> rules allowed on that line (from `galaxy-lint: allow(...)`).
  /// Parallel arrays keep this dependency-free and cheap for small files.
  std::vector<std::pair<size_t, std::string>> allow;
  /// Rules disabled for the entire file (from `allow-file(...)`).
  std::vector<std::string> allow_file;
  /// Lines that contain only comment text / whitespace. Used to let a
  /// suppression comment block sit above the offending line.
  std::vector<bool> comment_only_line;
  /// Lines that contain any code token.
  std::vector<bool> code_line;
  size_t num_lines = 0;
};

/// Lexes `content` (the text of the file at `path`).
LexedFile Lex(const std::string& content);

/// True when a diagnostic at `line` for `rule` is suppressed in `lexed`:
/// file-level allow, same-line allow, or an allow in the comment block
/// directly above. Shared with tools/galaxy_analyze, whose
/// `galaxy-analyze:` comment tag feeds the same allow tables.
bool Suppressed(const LexedFile& lexed, size_t line, const std::string& rule);

/// Runs every applicable rule over one file. `path` should be the path as
/// the user named it; rules that scope by location match on its normalized
/// (forward-slash) form, e.g. "src/core/", "tests/", basenames.
std::vector<Diagnostic> LintFile(const std::string& path,
                                 const std::string& content);

/// Reads and lints one file from disk. Returns false (and appends a
/// Diagnostic with rule "io") if the file cannot be read.
bool LintPath(const std::string& path, std::vector<Diagnostic>* out);

/// The names of every implemented rule, for `--list-rules` and tests.
std::vector<std::string> RuleNames();

}  // namespace galaxy::lint
