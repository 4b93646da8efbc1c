#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lint.h"

/// galaxy_analyze — a dependency-free whole-program static analyzer. It
/// reuses the galaxy_lint lexer to extract, per translation unit, a
/// lightweight semantic model (function definitions, call sites, lock
/// scopes, thread-safety annotations, ExecutionContext charge evidence),
/// links the per-TU models into a cross-TU call graph, and runs three
/// reachability rules over it:
///
///   lock-order        derives the global lock acquisition graph from
///                     nested lock scopes flattened through the call graph,
///                     reports cycles (potential deadlocks), and
///                     cross-checks derived order against the declared
///                     ACQUIRED_BEFORE edges.
///   reactor-blocking  from EventLoop / FdHandler / Post- and
///                     timer-callback entry points, flags any reachable
///                     blocking primitive (fsync, WalWriter::Append,
///                     CondVar::Wait, sleep_for, blocking socket I/O).
///                     Poller::Wait (epoll_wait) is the designed block
///                     and exempt; src/server/event_loop.* and
///                     src/server/connection.* do non-blocking socket I/O
///                     by construction and are exempt from the socket set.
///   budget-reach      nested loops in code reachable from executor /
///                     algorithm entry points along a charge-free path,
///                     where neither the function nor anything it calls
///                     from inside a loop charges the ExecutionContext
///                     budget — the whole-program generalization of
///                     galaxy_lint's per-file budget-charge rule.
///
/// Model-extraction limits (documented in tools/README.md): the extractor
/// is a token-stream heuristic, not a compiler. Preprocessor macros are not
/// expanded; calls through function pointers / std::function values link to
/// nothing (mitigated by treating every registered-callback shape as an
/// entry point); virtual dispatch (receiver type resolved to an interface
/// with no body of its own) and calls whose receiver type cannot be
/// inferred from member / parameter / local declarations link only to a
/// globally unique CamelCase definition of that name and are otherwise
/// dropped (under-approximation — ubiquitous names like `size` or
/// `ToString` would otherwise fabricate cross-class paths).
///
/// Suppressions use the shared comment machinery with the tag
/// `galaxy-analyze:` — `// galaxy-analyze: allow(rule) — reason` on or
/// directly above the diagnosed line, `allow-file(rule)` for the file.
namespace galaxy::analyze {

/// One call site inside a function body.
struct Call {
  std::string name;      ///< unqualified callee name
  std::string receiver;  ///< receiver expression text ("" = free call)
  std::string cls;       ///< explicit `Cls::name(...)` qualification, if any
  size_t line = 0;
  size_t loop_depth = 0;          ///< loop nesting at the call site
  std::vector<std::string> held;  ///< lock ids held at the call site
};

/// One lock acquisition (RAII locker or explicit .Lock()).
struct Acquire {
  std::string lock;  ///< canonical lock id, e.g. "Server::view_mutex_"
  size_t line = 0;
  std::vector<std::string> held;  ///< lock ids already held when acquired
};

/// How a lambda reaches execution, decided by the call it is passed to.
enum class LambdaRole {
  kNone,     ///< not a lambda
  kReactor,  ///< passed to EventLoop::Post / SetTimerCallback: loop thread
  kWorker,   ///< passed to WorkerPool::Submit: worker thread
  kPlain,    ///< anything else: modeled as called by the enclosing function
};

struct Function {
  std::string name;         ///< qualified: "Cls::F", "F", "Outer::<lambda:N>"
  std::string unqualified;  ///< "F" / "<lambda:N>"
  std::string cls;          ///< enclosing or explicit class ("" for free)
  std::string file;
  size_t line = 0;
  bool is_definition = false;
  LambdaRole lambda_role = LambdaRole::kNone;
  std::vector<std::string> requires_locks;  ///< REQUIRES(...) lock ids
  std::vector<Call> calls;
  std::vector<Acquire> acquires;
  /// parameter / local variable name -> inferred class type.
  std::map<std::string, std::string> var_types;
  bool has_charge = false;     ///< ExecutionContext budget evidence in body
  size_t max_loop_depth = 0;   ///< deepest loop nesting in the body
  size_t deep_loop_line = 0;   ///< line where nesting first reached 2
};

/// A declared `ACQUIRED_BEFORE` / `ACQUIRED_AFTER` edge, normalized so
/// `before` must be acquired before `after`.
struct DeclaredEdge {
  std::string before;
  std::string after;
  std::string file;
  size_t line = 0;
};

/// The per-TU semantic model.
struct FileModel {
  std::string path;  ///< normalized (forward slashes)
  std::vector<Function> functions;
  /// class name -> member name -> inferred class type.
  std::map<std::string, std::map<std::string, std::string>> members;
  std::vector<DeclaredEdge> declared_order;
  lint::LexedFile lexed;  ///< kept for suppression lookups
};

/// Extracts the semantic model of one file.
FileModel ExtractModel(const std::string& path, const std::string& content);

/// Links the models and runs all whole-program rules. Diagnostics carry the
/// same `path:line: error: [rule] message` shape as galaxy_lint.
std::vector<lint::Diagnostic> Analyze(const std::vector<FileModel>& models);

/// Convenience: extract + link + analyze (path, content) pairs.
std::vector<lint::Diagnostic> AnalyzeFiles(
    const std::vector<std::pair<std::string, std::string>>& files);

/// The names of every implemented rule, for `--list-rules` and tests.
std::vector<std::string> RuleNames();

}  // namespace galaxy::analyze
