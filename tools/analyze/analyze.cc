#include "analyze.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

/// Linking and the three whole-program rules. The call graph links by
/// name: explicit `Cls::f` and receiver expressions resolved through the
/// merged member / parameter / local type maps give exact targets; every
/// other shape (virtual dispatch through an interface with no body of its
/// own, unresolved receivers, unknown free calls) links only when the name
/// is globally unambiguous and CamelCase (repo method convention —
/// lowercase names are STL / libc calls); otherwise it is dropped. Calls
/// through std::function values link to nothing — every
/// registered-callback shape (FdHandler methods, Post / timer lambdas) is
/// an entry point instead.
namespace galaxy::analyze {
namespace {

using lint::Diagnostic;

struct Program {
  std::vector<const Function*> defs;
  std::map<std::string, std::vector<size_t>> by_name;  ///< unqualified
  std::map<std::string, std::vector<size_t>> by_qual;  ///< qualified
  /// REQUIRES(...) merged across declarations and definitions.
  std::map<std::string, std::set<std::string>> requires_of;
  std::map<std::string, std::map<std::string, std::string>> members;
  std::vector<DeclaredEdge> declared;
  std::map<std::string, const lint::LexedFile*> lexed;
};

bool SimpleIdent(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_')) {
      return false;
    }
  }
  return true;
}

std::string Basename(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Program Link(const std::vector<FileModel>& models) {
  Program p;
  for (const FileModel& m : models) {
    p.lexed.emplace(m.path, &m.lexed);
    for (const auto& [cls, mem] : m.members) {
      for (const auto& [name, type] : mem) p.members[cls][name] = type;
    }
    for (const DeclaredEdge& e : m.declared_order) p.declared.push_back(e);
    for (const Function& f : m.functions) {
      if (!f.requires_locks.empty()) {
        p.requires_of[f.name].insert(f.requires_locks.begin(),
                                     f.requires_locks.end());
      }
      if (!f.is_definition) continue;
      size_t idx = p.defs.size();
      p.defs.push_back(&f);
      p.by_name[f.unqualified].push_back(idx);
      p.by_qual[f.name].push_back(idx);
    }
  }
  return p;
}

/// Infers the class type of a receiver expression inside `f`: `this`,
/// locals / parameters, members of the enclosing class, and one `a->b` /
/// `a.b` hop through the merged member maps.
std::string ReceiverType(const Program& p, const Function& f,
                         std::string recv) {
  if (recv.empty()) return "";
  if (recv == "this") return f.cls;
  if (recv.rfind("this->", 0) == 0) recv.erase(0, 6);
  auto type_of = [&](const std::string& name) -> std::string {
    auto vit = f.var_types.find(name);
    if (vit != f.var_types.end()) return vit->second;
    auto cit = p.members.find(f.cls);
    if (cit != p.members.end()) {
      auto mit = cit->second.find(name);
      if (mit != cit->second.end()) return mit->second;
    }
    return "";
  };
  if (SimpleIdent(recv)) return type_of(recv);
  size_t sep = recv.find("->");
  size_t len = 2;
  size_t dot = recv.find('.');
  if (dot != std::string::npos && (sep == std::string::npos || dot < sep)) {
    sep = dot;
    len = 1;
  }
  if (sep == std::string::npos) return "";
  std::string base = recv.substr(0, sep);
  std::string rest = recv.substr(sep + len);
  if (!SimpleIdent(base) || !SimpleIdent(rest)) return "";
  std::string t1 = type_of(base);
  if (t1.empty()) return "";
  auto cit = p.members.find(t1);
  if (cit == p.members.end()) return "";
  auto mit = cit->second.find(rest);
  return mit == cit->second.end() ? "" : mit->second;
}

/// `Type::name` when the receiver type or explicit qualification is known,
/// "" otherwise.
std::string QualifiedCallName(const Program& p, const Function& f,
                              const Call& c) {
  if (!c.cls.empty()) return c.cls + "::" + c.name;
  std::string t = ReceiverType(p, f, c.receiver);
  if (!t.empty()) return t + "::" + c.name;
  return "";
}

std::vector<size_t> Callees(const Program& p, const Function& f,
                            const Call& c) {
  if (c.name.find("<lambda:") != std::string::npos) {
    auto it = p.by_qual.find(c.name);
    if (it == p.by_qual.end()) return {};
    std::vector<size_t> out;
    for (size_t idx : it->second) {
      if (p.defs[idx]->file == f.file) out.push_back(idx);
    }
    return out;
  }
  auto named = p.by_name.find(c.name);
  if (named == p.by_name.end()) return {};
  auto with_cls = [&](const std::string& cls) {
    std::vector<size_t> out;
    for (size_t idx : named->second) {
      if (p.defs[idx]->cls == cls) out.push_back(idx);
    }
    return out;
  };
  // Ambiguity guard for every by-name fallback below: linking each
  // same-name method would wire the graph through ubiquitous names
  // (`size`, `ToString`) and fabricate cross-class paths. A fallback link
  // is taken only when the name is globally unambiguous and follows the
  // repo's CamelCase method convention (lowercase names are STL / libc
  // calls); otherwise the call is dropped — a documented
  // under-approximation (analyze.h). Genuine virtual dispatch through an
  // interface survives when the override is unique; an ambiguous one
  // (FdHandler::OnReadable: Connection and the acceptor) is handled by the
  // rules' entry-point / exemption sets.
  auto unambiguous = [&]() -> std::vector<size_t> {
    if (named->second.size() == 1 &&
        std::isupper(static_cast<unsigned char>(c.name[0])) != 0) {
      return named->second;
    }
    return {};
  };
  if (!c.cls.empty()) return with_cls(c.cls);  // explicit: exact or nothing
  std::string t = ReceiverType(p, f, c.receiver);
  if (!t.empty()) {
    std::vector<size_t> exact = with_cls(t);
    if (!exact.empty()) return exact;
    return unambiguous();  // interface type with no body of its own
  }
  if (c.receiver.empty()) {
    std::vector<size_t> same_cls = with_cls(f.cls);
    if (!f.cls.empty() && !same_cls.empty()) return same_cls;
    std::vector<size_t> free_fns = with_cls("");
    if (!free_fns.empty()) return free_fns;
  }
  return unambiguous();
}

void Emit(const Program& p, const std::string& file, size_t line,
          const std::string& rule, std::string msg,
          std::vector<Diagnostic>* out) {
  auto it = p.lexed.find(file);
  if (it != p.lexed.end() && lint::Suppressed(*it->second, line, rule)) return;
  out->push_back({file, line, rule, std::move(msg)});
}

std::string PathString(const Program& p,
                       const std::map<size_t, size_t>& parent, size_t idx) {
  std::vector<std::string> names;
  for (size_t at = idx;;) {
    names.push_back(p.defs[at]->name);
    auto it = parent.find(at);
    if (it == parent.end() || it->second == at) break;
    at = it->second;
  }
  std::string out;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += *it;
  }
  return out;
}

// ---- rule: reactor-blocking ------------------------------------------------

const std::set<std::string>& FreeBlockingCalls() {
  static const std::set<std::string> kCalls = {
      "fsync", "fdatasync", "sleep_for", "usleep", "nanosleep"};
  return kCalls;
}

const std::set<std::string>& BlockingSocketCalls() {
  static const std::set<std::string> kCalls = {
      "recv", "recvfrom", "recvmsg", "send",    "sendto",
      "sendmsg", "accept", "accept4", "connect"};
  return kCalls;
}

const std::set<std::string>& QualifiedBlockingCalls() {
  static const std::set<std::string> kCalls = {
      "CondVar::Wait", "CondVar::WaitUntil", "WalWriter::Append",
      "WalWriter::Sync"};
  return kCalls;
}

/// Poller::Wait is the reactor's one designed block.
const std::set<std::string>& ExemptBlockingCalls() {
  static const std::set<std::string> kCalls = {"Poller::Wait"};
  return kCalls;
}

/// Files whose raw socket calls run on fds that are non-blocking by
/// construction (the event-driven I/O core).
bool NonBlockingIoFile(const std::string& path) {
  return path.find("src/server/event_loop.") != std::string::npos ||
         path.find("src/server/connection.") != std::string::npos;
}

/// "" when the call does not block; otherwise a human-readable label.
std::string BlockingLabel(const Program& p, const Function& f, const Call& c) {
  if (c.receiver.empty()) {
    if (FreeBlockingCalls().count(c.name) != 0) return c.name;
    if (BlockingSocketCalls().count(c.name) != 0 && c.cls.empty() &&
        !NonBlockingIoFile(f.file)) {
      return c.name + " (blocking socket I/O)";
    }
  }
  std::string q = QualifiedCallName(p, f, c);
  if (q.empty()) return "";
  if (ExemptBlockingCalls().count(q) != 0) return "";
  if (QualifiedBlockingCalls().count(q) != 0) return q;
  return "";
}

bool IsReactorEntry(const Function& f) {
  if (f.lambda_role == LambdaRole::kReactor) return true;
  if (f.name == "EventLoop::Run") return true;
  return f.unqualified == "OnReadable" || f.unqualified == "OnWritable" ||
         f.unqualified == "OnHangup";
}

void ReactorBlockingRule(const Program& p, std::vector<Diagnostic>* out) {
  std::map<size_t, size_t> parent;
  std::deque<size_t> queue;
  for (size_t i = 0; i < p.defs.size(); ++i) {
    if (IsReactorEntry(*p.defs[i])) {
      parent.emplace(i, i);
      queue.push_back(i);
    }
  }
  std::set<std::string> reported;
  while (!queue.empty()) {
    size_t at = queue.front();
    queue.pop_front();
    const Function& f = *p.defs[at];
    for (const Call& c : f.calls) {
      std::string label = BlockingLabel(p, f, c);
      if (!label.empty()) {
        std::string key = f.file + ":" + std::to_string(c.line) + ":" + label;
        if (reported.insert(key).second) {
          std::ostringstream msg;
          msg << "blocking call `" << label
              << "` is reachable on the event-loop thread (path: "
              << PathString(p, parent, at) << " -> " << c.name
              << "); blocking work must run on the worker pool";
          Emit(p, f.file, c.line, "reactor-blocking", msg.str(), out);
        }
      }
      for (size_t callee : Callees(p, f, c)) {
        if (parent.emplace(callee, at).second) queue.push_back(callee);
      }
    }
  }
}

// ---- rule: budget-reach ----------------------------------------------------

/// Entry files of the execution engine. count_kernel.cc is deliberately not
/// an entry: its kernels are branch-free inner tiles whose callers charge
/// per tile (the documented design since PR 5); the kernels are still
/// checked when reached over a charge-free path from a real entry.
bool IsBudgetEntryFile(const std::string& path) {
  std::string base = Basename(path);
  if (path.find("src/core/") != std::string::npos) {
    if (base.rfind("algorithm_", 0) == 0) return true;
    return base == "incremental.cc" || base == "aggregate_skyline.cc";
  }
  return path.find("src/sql/executor.cc") != std::string::npos;
}

/// True when `idx` (or anything it calls) shows budget evidence.
bool ChargesTransitively(const Program& p, size_t idx,
                         std::map<size_t, int>* memo) {
  auto it = memo->find(idx);
  if (it != memo->end()) return it->second == 1;
  (*memo)[idx] = 0;  // in progress: cycles do not charge
  const Function& f = *p.defs[idx];
  bool charges = f.has_charge;
  if (!charges) {
    for (const Call& c : f.calls) {
      for (size_t callee : Callees(p, f, c)) {
        if (ChargesTransitively(p, callee, memo)) {
          charges = true;
          break;
        }
      }
      if (charges) break;
    }
  }
  (*memo)[idx] = charges ? 1 : 0;
  return charges;
}

void BudgetReachRule(const Program& p, std::vector<Diagnostic>* out) {
  std::map<size_t, size_t> parent;
  std::deque<size_t> queue;
  for (size_t i = 0; i < p.defs.size(); ++i) {
    if (IsBudgetEntryFile(p.defs[i]->file)) {
      parent.emplace(i, i);
      queue.push_back(i);
    }
  }
  // Reachability along charge-free paths: a charging function bounds all
  // the work below it, so traversal stops there.
  while (!queue.empty()) {
    size_t at = queue.front();
    queue.pop_front();
    const Function& f = *p.defs[at];
    if (f.has_charge) continue;
    for (const Call& c : f.calls) {
      for (size_t callee : Callees(p, f, c)) {
        if (parent.emplace(callee, at).second) queue.push_back(callee);
      }
    }
  }
  std::map<size_t, int> memo;
  for (const auto& [idx, from] : parent) {
    const Function& f = *p.defs[idx];
    if (f.max_loop_depth < 2 || f.deep_loop_line == 0) continue;
    if (f.has_charge) continue;
    // Charge in a callee invoked from inside a loop also counts.
    bool charged_via_callee = false;
    for (const Call& c : f.calls) {
      if (c.loop_depth == 0) continue;
      for (size_t callee : Callees(p, f, c)) {
        if (ChargesTransitively(p, callee, &memo)) {
          charged_via_callee = true;
          break;
        }
      }
      if (charged_via_callee) break;
    }
    if (charged_via_callee) continue;
    std::ostringstream msg;
    msg << "function `" << f.name << "` has nested loops (depth "
        << f.max_loop_depth
        << ") with no ExecutionContext charge on the path "
        << PathString(p, parent, idx)
        << "; uncancellable work escapes the budget control plane";
    Emit(p, f.file, f.deep_loop_line, "budget-reach", msg.str(), out);
  }
}

// ---- rule: lock-order ------------------------------------------------------

struct OrderEdge {
  std::string file;
  size_t line = 0;
  std::string via;  ///< function whose body creates the edge
  bool declared = false;
};

std::set<std::string> EffectiveRequires(const Program& p, const Function& f) {
  std::set<std::string> r(f.requires_locks.begin(), f.requires_locks.end());
  auto it = p.requires_of.find(f.name);
  if (it != p.requires_of.end()) r.insert(it->second.begin(), it->second.end());
  // A REQUIRES lock the body explicitly unlocks (the unlock-around-body
  // idiom) is not reliably held at any given event; drop it rather than
  // derive false edges / false recursive acquisitions.
  for (const Call& c : f.calls) {
    if ((c.name == "Unlock" || c.name == "ReaderUnlock") &&
        !c.receiver.empty()) {
      std::string expr = c.receiver;
      if (expr.rfind("this->", 0) == 0) expr.erase(0, 6);
      if (SimpleIdent(expr) && !f.cls.empty()) expr = f.cls + "::" + expr;
      r.erase(expr);
    }
  }
  return r;
}

void LockOrderRule(const Program& p, std::vector<Diagnostic>* out) {
  // Transitive acquire sets, to fixpoint (the graph is small).
  std::vector<std::set<std::string>> ta(p.defs.size());
  std::vector<std::set<std::string>> req(p.defs.size());
  for (size_t i = 0; i < p.defs.size(); ++i) {
    req[i] = EffectiveRequires(p, *p.defs[i]);
    for (const Acquire& a : p.defs[i]->acquires) ta[i].insert(a.lock);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < p.defs.size(); ++i) {
      for (const Call& c : p.defs[i]->calls) {
        for (size_t callee : Callees(p, *p.defs[i], c)) {
          for (const std::string& l : ta[callee]) {
            if (req[callee].count(l) != 0) continue;  // caller's own lock
            if (ta[i].insert(l).second) changed = true;
          }
        }
      }
    }
  }
  // Acquisition-order edges.
  std::map<std::pair<std::string, std::string>, OrderEdge> edges;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const std::string& file, size_t line,
                      const std::string& via, bool declared) {
    if (from == to) return;
    edges.emplace(std::make_pair(from, to),
                  OrderEdge{file, line, via, declared});
  };
  for (size_t i = 0; i < p.defs.size(); ++i) {
    const Function& f = *p.defs[i];
    for (const Acquire& a : f.acquires) {
      std::set<std::string> held(a.held.begin(), a.held.end());
      held.insert(req[i].begin(), req[i].end());
      if (held.count(a.lock) != 0) {
        Emit(p, f.file, a.line, "lock-order",
             "lock `" + a.lock + "` acquired in `" + f.name +
                 "` while already held (recursive acquisition deadlocks "
                 "common::Mutex)",
             out);
        continue;
      }
      for (const std::string& h : held) {
        add_edge(h, a.lock, f.file, a.line, f.name, false);
      }
    }
    for (const Call& c : f.calls) {
      std::set<std::string> held(c.held.begin(), c.held.end());
      held.insert(req[i].begin(), req[i].end());
      if (held.empty()) continue;
      for (size_t callee : Callees(p, f, c)) {
        for (const std::string& l : ta[callee]) {
          if (req[callee].count(l) != 0) continue;
          for (const std::string& h : held) {
            add_edge(h, l, f.file, c.line, f.name + " -> " + c.name, false);
          }
        }
      }
    }
  }
  std::map<std::pair<std::string, std::string>, OrderEdge> derived = edges;
  for (const DeclaredEdge& e : p.declared) {
    add_edge(e.before, e.after, e.file, e.line, "ACQUIRED_BEFORE", true);
  }
  // Adjacency over the combined graph.
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [key, edge] : edges) adj[key.first].insert(key.second);
  // Cycle detection: iterative DFS with colors; report each cycle once,
  // anchored at the first derived edge on it.
  std::set<std::set<std::string>> reported_cycles;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::map<std::string, std::string> on_path_prev;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const std::string& v : adj[u]) {
      if (color[v] == 1) {
        // Found a cycle v -> ... -> u -> v on the grey stack.
        std::vector<std::string> cycle;
        for (size_t k = stack.size(); k > 0; --k) {
          cycle.push_back(stack[k - 1]);
          if (stack[k - 1] == v) break;
        }
        std::reverse(cycle.begin(), cycle.end());
        std::set<std::string> key(cycle.begin(), cycle.end());
        if (reported_cycles.insert(key).second) {
          std::ostringstream msg;
          msg << "lock acquisition cycle: ";
          const OrderEdge* anchor = nullptr;
          for (size_t k = 0; k < cycle.size(); ++k) {
            const std::string& a = cycle[k];
            const std::string& b = cycle[(k + 1) % cycle.size()];
            auto it = edges.find({a, b});
            if (k != 0) msg << ", ";
            msg << a << " -> " << b;
            if (it != edges.end()) {
              msg << " (" << (it->second.declared ? "declared at " : "via ")
                  << (it->second.declared
                          ? it->second.file + ":" +
                                std::to_string(it->second.line)
                          : it->second.via + " at " + it->second.file + ":" +
                                std::to_string(it->second.line))
                  << ")";
              if (anchor == nullptr && !it->second.declared) {
                anchor = &it->second;
              }
            }
          }
          msg << "; two threads interleaving these acquisitions deadlock";
          if (anchor == nullptr) {
            // Purely declared cycle: anchor at the first declaration.
            auto it = edges.find({cycle[0], cycle[1 % cycle.size()]});
            if (it != edges.end()) anchor = &it->second;
          }
          if (anchor != nullptr) {
            Emit(p, anchor->file, anchor->line, "lock-order", msg.str(), out);
          }
        }
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (const auto& [node, unused] : adj) {
    (void)unused;
    if (color[node] == 0) dfs(node);
  }
  // Declared-vs-derived cross-check: a declared a-before-b contradicted by
  // a derived path b ~> a.
  std::map<std::string, std::set<std::string>> dadj;
  for (const auto& [key, edge] : derived) dadj[key.first].insert(key.second);
  for (const DeclaredEdge& e : p.declared) {
    // BFS from e.after looking for e.before.
    std::map<std::string, std::string> prev;
    std::deque<std::string> q;
    q.push_back(e.after);
    prev.emplace(e.after, e.after);
    bool found = false;
    while (!q.empty() && !found) {
      std::string u = q.front();
      q.pop_front();
      for (const std::string& v : dadj[u]) {
        if (prev.emplace(v, u).second) {
          if (v == e.before) {
            found = true;
            break;
          }
          q.push_back(v);
        }
      }
    }
    if (!found) continue;
    // Reconstruct the path for the message; anchor at its first edge.
    std::vector<std::string> path;
    for (std::string at = e.before; ; at = prev[at]) {
      path.push_back(at);
      if (at == e.after) break;
    }
    std::reverse(path.begin(), path.end());
    auto first_edge = derived.find({path[0], path[1]});
    std::ostringstream msg;
    msg << "derived acquisition order ";
    for (size_t k = 0; k < path.size(); ++k) {
      if (k != 0) msg << " -> ";
      msg << path[k];
    }
    msg << " contradicts `" << e.before << "` ACQUIRED_BEFORE `" << e.after
        << "` declared at " << e.file << ":" << e.line;
    if (first_edge != derived.end()) {
      Emit(p, first_edge->second.file, first_edge->second.line, "lock-order",
           msg.str(), out);
    }
  }
}

}  // namespace

std::vector<Diagnostic> Analyze(const std::vector<FileModel>& models) {
  Program p = Link(models);
  std::vector<Diagnostic> out;
  LockOrderRule(p, &out);
  ReactorBlockingRule(p, &out);
  BudgetReachRule(p, &out);
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Diagnostic& a, const Diagnostic& b) {
                          return a.path == b.path && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

std::vector<Diagnostic> AnalyzeFiles(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const auto& [path, content] : files) {
    models.push_back(ExtractModel(path, content));
  }
  return Analyze(models);
}

std::vector<std::string> RuleNames() {
  return {"budget-reach", "lock-order", "reactor-blocking"};
}

}  // namespace galaxy::analyze
