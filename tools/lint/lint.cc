#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace galaxy::lint {

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << path << ":" << line << ": error: [" << rule << "] " << message;
  return os.str();
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Scans one comment's text for `galaxy-lint: allow(...)` /
/// `allow-file(...)` annotations. `first_line` is the line the comment
/// starts on; annotations inside multi-line comments attach to the line
/// they appear on. The whole-program analyzer (`tools/galaxy_analyze`)
/// shares the lexer, so its `galaxy-analyze:` tag feeds the same allow
/// tables; rule names are globally unique across the two tools.
void ScanCommentForAllowsTag(const std::string& tag, const std::string& text,
                             size_t first_line, LexedFile* out) {
  size_t line = first_line;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string row = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    size_t at = 0;
    while ((at = row.find(tag, at)) != std::string::npos) {
      size_t p = at + tag.size();
      while (p < row.size() && row[p] == ' ') ++p;
      bool file_scope = false;
      if (row.compare(p, 11, "allow-file(") == 0) {
        file_scope = true;
        p += 11;
      } else if (row.compare(p, 6, "allow(") == 0) {
        p += 6;
      } else {
        ++at;
        continue;
      }
      size_t close = row.find(')', p);
      if (close == std::string::npos) break;
      std::string rules = row.substr(p, close - p);
      size_t start = 0;
      while (start < rules.size()) {
        size_t comma = rules.find(',', start);
        std::string rule = rules.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        while (!rule.empty() && rule.front() == ' ') rule.erase(0, 1);
        while (!rule.empty() && rule.back() == ' ') rule.pop_back();
        if (!rule.empty()) {
          if (file_scope) {
            out->allow_file.push_back(rule);
          } else {
            out->allow.emplace_back(line, rule);
          }
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      at = close;
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
    ++line;
  }
}

void ScanCommentForAllows(const std::string& text, size_t first_line,
                          LexedFile* out) {
  ScanCommentForAllowsTag("galaxy-lint:", text, first_line, out);
  ScanCommentForAllowsTag("galaxy-analyze:", text, first_line, out);
}

void MarkLines(std::vector<bool>* lines, size_t from, size_t to) {
  if (lines->size() <= to) lines->resize(to + 1, false);
  for (size_t l = from; l <= to; ++l) (*lines)[l] = true;
}

}  // namespace

LexedFile Lex(const std::string& content) {
  LexedFile out;
  std::vector<bool> comment_lines;  // lines touched by any comment
  size_t i = 0;
  size_t line = 1;
  const size_t n = content.size();
  bool at_line_start = true;  // only whitespace seen on this line so far

  auto push = [&](TokenKind kind, std::string text, size_t tok_line) {
    out.tokens.push_back({kind, std::move(text), tok_line});
    MarkLines(&out.code_line, tok_line, tok_line);
  };

  while (i < n) {
    char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: '#' first on the line; consume the logical
    // line including backslash continuations.
    if (c == '#' && at_line_start) {
      size_t start_line = line;
      std::string text;
      while (i < n) {
        char d = content[i];
        if (d == '\\' && i + 1 < n && content[i + 1] == '\n') {
          i += 2;
          ++line;
          text += ' ';
          continue;
        }
        if (d == '\n') break;
        // A trailing // comment inside a directive ends the directive text.
        if (d == '/' && i + 1 < n && content[i + 1] == '/') break;
        text += d;
        ++i;
      }
      push(TokenKind::kPreproc, std::move(text), start_line);
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      size_t start_line = line;
      size_t start = i;
      while (i < n && content[i] != '\n') ++i;
      std::string text = content.substr(start, i - start);
      MarkLines(&comment_lines, start_line, start_line);
      ScanCommentForAllows(text, start_line, &out);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      size_t start_line = line;
      size_t start = i;
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') ++line;
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      std::string text = content.substr(start, i - start);
      MarkLines(&comment_lines, start_line, line);
      ScanCommentForAllows(text, start_line, &out);
      continue;
    }
    // Identifier (and string-literal prefixes).
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(content[i])) ++i;
      std::string id = content.substr(start, i - start);
      // Raw string literal: R"delim( ... )delim".
      if ((id == "R" || id == "u8R" || id == "uR" || id == "LR") && i < n &&
          content[i] == '"') {
        size_t tok_line = line;
        ++i;  // consume '"'
        std::string delim;
        while (i < n && content[i] != '(') delim += content[i++];
        ++i;  // consume '('
        std::string closer = ")" + delim + "\"";
        size_t end = content.find(closer, i);
        if (end == std::string::npos) end = n;
        for (size_t k = i; k < end && k < n; ++k) {
          if (content[k] == '\n') ++line;
        }
        i = std::min(n, end + closer.size());
        push(TokenKind::kString, "", tok_line);
        continue;
      }
      // Prefixed ordinary string / char literal: u8"..", u'.', L"..".
      if ((id == "u8" || id == "u" || id == "L") && i < n &&
          (content[i] == '"' || content[i] == '\'')) {
        // Fall through to the literal scanners below by not emitting the
        // prefix as an identifier.
      } else {
        push(TokenKind::kIdentifier, std::move(id), line);
        continue;
      }
      c = content[i];
    }
    // String literal.
    if (c == '"') {
      size_t tok_line = line;
      ++i;
      while (i < n && content[i] != '"') {
        if (content[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        if (content[i] == '\n') ++line;  // ill-formed, but keep counting
        ++i;
      }
      if (i < n) ++i;
      push(TokenKind::kString, "", tok_line);
      continue;
    }
    // Character literal.
    if (c == '\'') {
      size_t tok_line = line;
      ++i;
      while (i < n && content[i] != '\'') {
        if (content[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        ++i;
      }
      if (i < n) ++i;
      push(TokenKind::kCharLiteral, "", tok_line);
      continue;
    }
    // Number (handles digit separators and exponents).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(content[i + 1])))) {
      size_t start = i;
      ++i;
      while (i < n) {
        char d = content[i];
        if (IsIdentChar(d) || d == '.') {
          ++i;
          continue;
        }
        if (d == '\'' && i + 1 < n && IsIdentChar(content[i + 1])) {
          i += 2;
          continue;
        }
        if ((d == '+' || d == '-') && i > start) {
          char prev = content[i - 1];
          if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
            ++i;
            continue;
          }
        }
        break;
      }
      push(TokenKind::kNumber, content.substr(start, i - start), line);
      continue;
    }
    // Punctuation: longest match for the two-char operators rules care
    // about, one char otherwise.
    static const char* kTwoChar[] = {"::", "->", "++", "--", "<<", ">>",
                                     "<=", ">=", "==", "!=", "&&", "||",
                                     "+=", "-=", "*=", "/=", "|=", "&=",
                                     "^=", "%="};
    std::string punct(1, c);
    if (i + 1 < n) {
      std::string two = content.substr(i, 2);
      for (const char* t : kTwoChar) {
        if (two == t) {
          punct = two;
          break;
        }
      }
    }
    i += punct.size();
    push(TokenKind::kPunct, std::move(punct), line);
  }

  out.num_lines = line;
  out.code_line.resize(line + 1, false);
  comment_lines.resize(line + 1, false);
  out.comment_only_line.assign(line + 1, false);
  for (size_t l = 1; l <= line; ++l) {
    out.comment_only_line[l] = comment_lines[l] && !out.code_line[l];
  }
  return out;
}

/// True when the diagnostic at `line` for `rule` is suppressed: file-level
/// allow, same-line allow, or an allow in the comment block directly above.
bool Suppressed(const LexedFile& lexed, size_t line, const std::string& rule) {
  for (const std::string& r : lexed.allow_file) {
    if (r == rule) return true;
  }
  auto allowed_at = [&](size_t l) {
    for (const auto& [al, ar] : lexed.allow) {
      if (al == l && ar == rule) return true;
    }
    return false;
  };
  if (allowed_at(line)) return true;
  size_t l = line;
  while (l > 1) {
    --l;
    if (l >= lexed.comment_only_line.size() || !lexed.comment_only_line[l]) {
      break;
    }
    if (allowed_at(l)) return true;
  }
  return false;
}

namespace {

struct PathInfo {
  std::string normalized;  ///< forward slashes
  std::string basename;
  bool in_tests = false;
  bool in_bench = false;
  bool in_src_core = false;
  bool in_storage = false;
  bool in_relation = false;
  bool is_mutex_wrapper = false;
  bool is_event_loop = false;
  bool is_header = false;
  bool in_src = false;      ///< under a src/ directory
  bool in_testing = false;  ///< under src/testing/
};

PathInfo ClassifyPath(const std::string& path) {
  PathInfo info;
  info.normalized = path;
  std::replace(info.normalized.begin(), info.normalized.end(), '\\', '/');
  size_t slash = info.normalized.rfind('/');
  info.basename = slash == std::string::npos
                      ? info.normalized
                      : info.normalized.substr(slash + 1);
  const std::string& p = info.normalized;
  info.in_tests = p.find("tests/") != std::string::npos;
  info.in_bench = p.find("bench/") != std::string::npos;
  info.in_src_core = p.find("src/core/") != std::string::npos;
  info.in_storage = p.find("src/storage/") != std::string::npos;
  info.in_relation = p.find("src/relation/") != std::string::npos;
  info.is_mutex_wrapper = p.find("common/mutex.h") != std::string::npos;
  info.is_event_loop = p.find("src/server/event_loop.") != std::string::npos;
  info.is_header = p.size() >= 2 && p.compare(p.size() - 2, 2, ".h") == 0;
  info.in_src = p.compare(0, 4, "src/") == 0 ||
                p.find("/src/") != std::string::npos;
  info.in_testing = p.find("src/testing/") != std::string::npos;
  return info;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

class Linter {
 public:
  Linter(const std::string& path, const LexedFile& lexed)
      : path_(path), info_(ClassifyPath(path)), lexed_(lexed) {}

  std::vector<Diagnostic> Run() {
    RawMutex();
    BannedCall();
    RawFileIo();
    BlockingSocketIo();
    RowMajorAccess();
    NakedNew();
    StatusConsumed();
    PragmaOnce();
    IostreamCore();
    FuzzOutsideTesting();
    BudgetCharge();
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return a.line < b.line;
              });
    return std::move(diags_);
  }

 private:
  void Report(size_t line, const std::string& rule, std::string message) {
    if (Suppressed(lexed_, line, rule)) return;
    diags_.push_back({path_, line, rule, std::move(message)});
  }

  const std::vector<Token>& toks() const { return lexed_.tokens; }

  /// Index of the previous non-preprocessor token, or npos.
  size_t Prev(size_t i) const {
    while (i > 0) {
      --i;
      if (toks()[i].kind != TokenKind::kPreproc) return i;
    }
    return std::string::npos;
  }
  size_t Next(size_t i) const {
    for (++i; i < toks().size(); ++i) {
      if (toks()[i].kind != TokenKind::kPreproc) return i;
    }
    return std::string::npos;
  }
  bool IsPunct(size_t i, const char* p) const {
    return i != std::string::npos && i < toks().size() &&
           toks()[i].kind == TokenKind::kPunct && toks()[i].text == p;
  }
  bool IsIdent(size_t i) const {
    return i != std::string::npos && i < toks().size() &&
           toks()[i].kind == TokenKind::kIdentifier;
  }
  bool IsIdent(size_t i, const char* name) const {
    return IsIdent(i) && toks()[i].text == name;
  }

  // ---- raw-mutex --------------------------------------------------------
  // std:: synchronization primitives must not appear outside the annotated
  // wrapper (src/common/mutex.h): the clang thread-safety analysis can only
  // reason about capabilities, and libstdc++'s types carry none.
  void RawMutex() {
    if (info_.is_mutex_wrapper) return;
    static const char* kRaw[] = {
        "mutex",          "shared_mutex",       "recursive_mutex",
        "timed_mutex",    "recursive_timed_mutex",
        "condition_variable", "condition_variable_any",
        "lock_guard",     "unique_lock",        "scoped_lock",
        "shared_lock"};
    for (size_t i = 0; i + 2 < toks().size(); ++i) {
      if (!IsIdent(i, "std")) continue;
      size_t colon = Next(i);
      if (!IsPunct(colon, "::")) continue;
      size_t name = Next(colon);
      if (!IsIdent(name)) continue;
      for (const char* raw : kRaw) {
        if (toks()[name].text == raw) {
          Report(toks()[i].line, "raw-mutex",
                 "std::" + toks()[name].text +
                     " outside common/mutex.h; use the annotated "
                     "common::Mutex / SharedMutex / CondVar wrappers so "
                     "-Wthread-safety can see the capability");
          break;
        }
      }
    }
  }

  // ---- banned-call ------------------------------------------------------
  void BannedCall() {
    struct Banned {
      const char* name;
      const char* hint;
    };
    static const Banned kBanned[] = {
        {"rand", "use <random> engines (seedable, thread-safe by ownership)"},
        {"strcpy", "use std::string or std::snprintf"},
        {"strcat", "use std::string"},
        {"sprintf", "use std::snprintf or std::ostringstream"},
        {"vsprintf", "use std::vsnprintf"},
        {"gets", "use std::getline"},
    };
    for (size_t i = 0; i < toks().size(); ++i) {
      if (!IsIdent(i)) continue;
      size_t next = Next(i);
      if (!IsPunct(next, "(")) continue;
      size_t prev = Prev(i);
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      // `int rand() { ... }` is a declaration, not a call; but calls can
      // directly follow flow keywords (`return rand();`).
      if (IsIdent(prev) && !IsIdent(prev, "return") &&
          !IsIdent(prev, "throw") && !IsIdent(prev, "co_return") &&
          !IsIdent(prev, "co_await") && !IsIdent(prev, "co_yield")) {
        continue;
      }
      bool qualified = IsPunct(prev, "::");
      size_t qualifier = qualified ? Prev(prev) : std::string::npos;
      if (qualified && !IsIdent(qualifier, "std")) {
        // Allow `std::this_thread::sleep_for` through to the check below;
        // any other non-std qualification is a different function.
        if (!(toks()[i].text == "sleep_for" &&
              IsIdent(qualifier, "this_thread"))) {
          continue;
        }
      }
      for (const Banned& b : kBanned) {
        if (toks()[i].text == b.name) {
          Report(toks()[i].line, "banned-call",
                 std::string(b.name) + "() is banned; " + b.hint);
          break;
        }
      }
      if (toks()[i].text == "sleep_for" && !info_.in_tests &&
          !info_.in_bench) {
        Report(toks()[i].line, "banned-call",
               "sleep_for() outside tests/bench; wait on a "
               "common::CondVar or a deadline instead of sleeping");
      }
    }
  }

  // ---- raw-file-io ------------------------------------------------------
  // Durable state must be written through the storage Env seam
  // (src/storage/env.h): a raw write-side syscall / FILE* / ofstream
  // anywhere else bypasses the WAL's crash-safety contract and the fault
  // injection the torture tests rely on. Read-side I/O (ifstream, fread)
  // stays unrestricted; tests/ and bench/ are exempt.
  void RawFileIo() {
    if (info_.in_storage || info_.in_tests || info_.in_bench) return;
    static const char* kWriteCalls[] = {
        "fopen",  "freopen", "open",      "openat",    "creat", "write",
        "pwrite", "writev",  "pwritev",   "fsync",     "fdatasync",
        "ftruncate"};
    for (size_t i = 0; i < toks().size(); ++i) {
      if (!IsIdent(i)) continue;
      const std::string& name = toks()[i].text;

      // std::ofstream / std::fstream as a type is already a violation —
      // the object exists only to write a file.
      if (name == "ofstream" || name == "fstream") {
        size_t prev = Prev(i);
        if (IsPunct(prev, "::") && IsIdent(Prev(prev), "std")) {
          Report(toks()[i].line, "raw-file-io",
                 "std::" + name +
                     " outside src/storage/; write files through the "
                     "storage Env seam (storage/env.h) so crash safety "
                     "and fault injection apply");
        }
        continue;
      }

      bool banned = false;
      for (const char* call : kWriteCalls) {
        if (name == call) {
          banned = true;
          break;
        }
      }
      if (!banned) continue;
      size_t next = Next(i);
      if (!IsPunct(next, "(")) continue;
      size_t prev = Prev(i);
      // Member calls (stream.write(...), file->open(...)) are a different
      // function; flagged only via their ofstream/fstream type above.
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      // `ssize_t write(...)` is a declaration, not a call.
      if (IsIdent(prev) && !IsIdent(prev, "return") &&
          !IsIdent(prev, "throw")) {
        continue;
      }
      if (IsPunct(prev, "::")) {
        // `SomeClass::write(` is a different function; `::write(` (global
        // scope — no identifier before ::) and `std::fopen(` are the real
        // syscall / libc call.
        size_t qualifier = Prev(prev);
        if (IsIdent(qualifier) && !IsIdent(qualifier, "std")) continue;
      }
      Report(toks()[i].line, "raw-file-io",
             name +
                 "() outside src/storage/; go through the storage Env "
                 "seam (storage/env.h) so durability, crash recovery and "
                 "fault injection see the write");
    }
  }

  // ---- blocking-socket-io ------------------------------------------------
  // Socket I/O belongs on the event loop: a raw recv/send/accept call site
  // anywhere else is either a blocking call that can stall a whole thread
  // on one slow peer, or a second hand-rolled readiness loop drifting from
  // the reactor's semantics. The event engine's own (non-blocking) call
  // sites carry reviewed allow-file suppressions justifying themselves;
  // tests/ and bench/ are exempt.
  void BlockingSocketIo() {
    if (info_.in_tests || info_.in_bench || info_.is_event_loop) return;
    static const char* kSocketCalls[] = {
        "recv",    "recvfrom", "recvmsg", "send",   "sendto",
        "sendmsg", "accept",   "accept4", "connect"};
    for (size_t i = 0; i < toks().size(); ++i) {
      if (!IsIdent(i)) continue;
      const std::string& name = toks()[i].text;
      bool banned = false;
      for (const char* call : kSocketCalls) {
        if (name == call) {
          banned = true;
          break;
        }
      }
      if (!banned) continue;
      size_t next = Next(i);
      if (!IsPunct(next, "(")) continue;
      size_t prev = Prev(i);
      // Member calls (socket.send(...), sig.connect(...)) are a different
      // function.
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      // `ssize_t recv(...)` is a declaration, not a call.
      if (IsIdent(prev) && !IsIdent(prev, "return") &&
          !IsIdent(prev, "throw")) {
        continue;
      }
      if (IsPunct(prev, "::")) {
        // `SomeClass::connect(` is a different function; `::recv(` (global
        // scope) is the real syscall.
        size_t qualifier = Prev(prev);
        if (IsIdent(qualifier)) continue;
      }
      Report(toks()[i].line, "blocking-socket-io",
             name +
                 "() outside src/server/event_loop; socket I/O must run "
                 "non-blocking on the EventLoop (server/event_loop.h), or "
                 "carry a reviewed suppression explaining why this call "
                 "site cannot stall");
    }
  }

  // ---- row-major-access -------------------------------------------------
  // MaterializeRow()/DebugRows() box every cell they touch; since the
  // Table moved to column-major storage they exist only for debug, test
  // and seeding paths. Outside src/relation/ (the implementation) and
  // tests/ a call means new code is being written against the old
  // row-major interface — hot paths must read typed columns
  // (Table::column + ints()/doubles()/strings()) instead.
  void RowMajorAccess() {
    if (info_.in_relation || info_.in_tests) return;
    for (size_t i = 0; i < toks().size(); ++i) {
      if (!IsIdent(i)) continue;
      const std::string& name = toks()[i].text;
      if (name != "MaterializeRow" && name != "DebugRows") continue;
      if (!IsPunct(Next(i), "(")) continue;
      Report(toks()[i].line, "row-major-access",
             name +
                 "() boxes whole rows; read typed columns "
                 "(Table::column) on execution paths, or suppress with a "
                 "comment explaining why boxing is off the hot path");
    }
  }

  // ---- naked-new --------------------------------------------------------
  void NakedNew() {
    for (size_t i = 0; i < toks().size(); ++i) {
      if (!IsIdent(i, "new")) continue;
      size_t prev = Prev(i);
      if (IsIdent(prev, "operator")) continue;  // operator new declarations
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      Report(toks()[i].line, "naked-new",
             "naked new; use std::make_unique / containers, or suppress "
             "with a comment explaining the ownership transfer");
    }
  }

  // ---- status-consumed --------------------------------------------------
  // Same-file heuristic: collect names of functions declared with return
  // type Status, then flag bare expression statements that call one and
  // drop the result. Cross-file cases are the compiler's job via the
  // [[nodiscard]] attribute on Status itself.
  void StatusConsumed() {
    std::vector<std::string> status_fns;
    for (size_t i = 0; i < toks().size(); ++i) {
      if (!IsIdent(i, "Status")) continue;
      size_t prev = Prev(i);
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      if (IsIdent(prev, "return") || IsIdent(prev, "class") ||
          IsIdent(prev, "struct")) {
        continue;
      }
      // Walk (identifier ::)* NAME ( — qualified definitions included.
      size_t j = Next(i);
      while (IsIdent(j) && IsPunct(Next(j), "::")) j = Next(Next(j));
      if (!IsIdent(j)) continue;
      if (IsPunct(Next(j), "(")) status_fns.push_back(toks()[j].text);
    }
    if (status_fns.empty()) return;

    for (size_t i = 0; i < toks().size(); ++i) {
      if (!IsIdent(i)) continue;
      bool known = false;
      for (const std::string& fn : status_fns) {
        if (toks()[i].text == fn) {
          known = true;
          break;
        }
      }
      if (!known) continue;
      size_t open = Next(i);
      if (!IsPunct(open, "(")) continue;
      // Find the matching close paren.
      int depth = 0;
      size_t close = std::string::npos;
      for (size_t k = open; k < toks().size(); ++k) {
        if (toks()[k].kind != TokenKind::kPunct) continue;
        if (toks()[k].text == "(") ++depth;
        if (toks()[k].text == ")" && --depth == 0) {
          close = k;
          break;
        }
      }
      if (close == std::string::npos || !IsPunct(Next(close), ";")) continue;
      // Walk back the receiver chain: (identifier (. | -> | ::))* NAME.
      size_t head = i;
      while (true) {
        size_t sep = Prev(head);
        if (!(IsPunct(sep, ".") || IsPunct(sep, "->") ||
              IsPunct(sep, "::"))) {
          break;
        }
        size_t recv = Prev(sep);
        if (!IsIdent(recv)) break;
        head = recv;
      }
      size_t before = Prev(head);
      bool stmt_start = before == std::string::npos ||
                        IsPunct(before, ";") || IsPunct(before, "{") ||
                        IsPunct(before, "}");
      if (!stmt_start) continue;
      Report(toks()[i].line, "status-consumed",
             "result of Status-returning " + toks()[i].text +
                 "() is dropped; check it, GALAXY_RETURN_IF_ERROR it, or "
                 "cast to (void) with a comment");
    }
  }

  // ---- pragma-once ------------------------------------------------------
  void PragmaOnce() {
    if (!info_.is_header) return;
    for (const Token& t : toks()) {
      if (t.kind != TokenKind::kPreproc) continue;
      if (t.text.find("pragma") != std::string::npos &&
          t.text.find("once") != std::string::npos) {
        return;
      }
    }
    Report(1, "pragma-once", "header is missing #pragma once");
  }

  // ---- iostream-core ----------------------------------------------------
  void IostreamCore() {
    if (!info_.in_src_core) return;
    for (const Token& t : toks()) {
      if (t.kind != TokenKind::kPreproc) continue;
      if (t.text.find("include") != std::string::npos &&
          t.text.find("<iostream>") != std::string::npos) {
        Report(t.line, "iostream-core",
               "<iostream> in src/core pulls static iostream initializers "
               "into the hot library; use common/logging.h");
      }
    }
  }

  // ---- fuzz-outside-testing ---------------------------------------------
  // Fuzz drivers are test code: under src/ they belong in src/testing/
  // (the galaxy_testing library), not in the libraries the server links.
  void FuzzOutsideTesting() {
    if (!info_.in_src || info_.in_testing) return;
    if (info_.basename.find("_fuzz.") == std::string::npos) return;
    Report(1, "fuzz-outside-testing",
           "fuzz driver " + info_.basename +
               " in a production library; move it to src/testing/");
  }

  // ---- budget-charge ----------------------------------------------------
  // In the dominance-counting translation units, any function that runs
  // nested (record-pair) loops must show evidence of charging the
  // ExecutionContext comparison budget — otherwise a query over it cannot
  // be cancelled or deadline-bounded.
  void BudgetCharge() {
    bool applies = (StartsWith(info_.basename, "algorithm_") &&
                    EndsWith(info_.basename, ".cc")) ||
                   info_.basename == "count_kernel.cc";
    if (!applies) return;

    static const char* kEvidence[] = {"Charge",    "ChargeBatched",
                                      "Compare",   "CheckInterrupt",
                                      "interrupted", "stopped",
                                      "ShouldStop"};

    struct FnFrame {
      int loop_depth = 0;
      int max_loop_depth = 0;
      bool evidence = false;
      size_t flag_line = 0;  // where nesting first hit 2
    };
    enum class BraceKind { kPlain, kFunction, kLoop };
    enum class Pending { kNone, kFnCandidate, kLoopBody, kPlainBlock };

    std::vector<FnFrame> fns;
    std::vector<BraceKind> braces;
    std::vector<bool> paren_is_control;  // per open paren
    std::vector<bool> paren_is_loop;     // the control keyword was for/while
    Pending pending = Pending::kNone;

    for (size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.kind == TokenKind::kPreproc) continue;
      if (t.kind == TokenKind::kIdentifier) {
        if (!fns.empty()) {
          for (const char* ev : kEvidence) {
            if (t.text == ev) {
              fns.back().evidence = true;
              break;
            }
          }
        }
        continue;
      }
      if (t.kind != TokenKind::kPunct) continue;
      const std::string& p = t.text;
      if (p == "(") {
        size_t prev = Prev(i);
        bool control = IsIdent(prev, "if") || IsIdent(prev, "for") ||
                       IsIdent(prev, "while") || IsIdent(prev, "switch") ||
                       IsIdent(prev, "catch");
        bool loop = IsIdent(prev, "for") || IsIdent(prev, "while");
        paren_is_control.push_back(control);
        paren_is_loop.push_back(loop);
        continue;
      }
      if (p == ")") {
        if (paren_is_control.empty()) continue;
        bool control = paren_is_control.back();
        bool loop = paren_is_loop.back();
        paren_is_control.pop_back();
        paren_is_loop.pop_back();
        if (!paren_is_control.empty()) continue;  // still inside parens
        pending = loop      ? Pending::kLoopBody
                  : control ? Pending::kPlainBlock
                            : Pending::kFnCandidate;
        continue;
      }
      if (p == ";") {
        pending = Pending::kNone;
        continue;
      }
      if (p == "{") {
        size_t prev = Prev(i);
        BraceKind kind = BraceKind::kPlain;
        if (IsIdent(prev, "do") || pending == Pending::kLoopBody) {
          kind = BraceKind::kLoop;
        } else if (pending == Pending::kFnCandidate) {
          kind = BraceKind::kFunction;
        }
        pending = Pending::kNone;
        braces.push_back(kind);
        if (kind == BraceKind::kFunction) {
          fns.emplace_back();
        } else if (kind == BraceKind::kLoop && !fns.empty()) {
          FnFrame& fn = fns.back();
          ++fn.loop_depth;
          if (fn.loop_depth > fn.max_loop_depth) {
            fn.max_loop_depth = fn.loop_depth;
            if (fn.max_loop_depth == 2 && fn.flag_line == 0) {
              fn.flag_line = t.line;
            }
          }
        }
        continue;
      }
      if (p == "}") {
        if (braces.empty()) continue;
        BraceKind kind = braces.back();
        braces.pop_back();
        if (kind == BraceKind::kLoop && !fns.empty()) {
          --fns.back().loop_depth;
        } else if (kind == BraceKind::kFunction && !fns.empty()) {
          FnFrame done = fns.back();
          fns.pop_back();
          if (done.max_loop_depth >= 2 && !done.evidence) {
            Report(done.flag_line, "budget-charge",
                   "nested record-pair loop never charges the "
                   "ExecutionContext budget (no Charge/Compare/interrupted "
                   "in this function); unbudgeted scans cannot be "
                   "cancelled or deadline-bounded");
          }
          // A charging lambda inside an outer loop is evidence for the
          // enclosing function too.
          if (done.evidence && !fns.empty()) fns.back().evidence = true;
        }
        continue;
      }
    }
  }

  const std::string path_;
  const PathInfo info_;
  const LexedFile& lexed_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> LintFile(const std::string& path,
                                 const std::string& content) {
  LexedFile lexed = Lex(content);
  return Linter(path, lexed).Run();
}

bool LintPath(const std::string& path, std::vector<Diagnostic>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out->push_back({path, 0, "io", "cannot read file"});
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<Diagnostic> diags = LintFile(path, buf.str());
  out->insert(out->end(), diags.begin(), diags.end());
  return true;
}

std::vector<std::string> RuleNames() {
  return {"raw-mutex",          "budget-charge",    "banned-call",
          "raw-file-io",        "blocking-socket-io", "row-major-access",
          "naked-new",          "status-consumed",  "pragma-once",
          "iostream-core",      "fuzz-outside-testing"};
}

}  // namespace galaxy::lint
