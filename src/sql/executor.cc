#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <cctype>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/str_util.h"
#include "core/aggregate_skyline.h"
#include "core/group.h"
#include "relation/column.h"
#include "skyline/skyline.h"
#include "sql/optimizer.h"
#include "sql/value_ops.h"

namespace galaxy::sql {

namespace {

// A row as the expression evaluator sees it. Two modes:
//  - values mode: a materialized slot array (group first-rows, passing rows);
//  - cursor mode: slots resolve through the owning base table's current row,
//    boxing one cell on demand — the FROM product never copies whole rows.
struct RowView {
  const Value* values = nullptr;                 // values mode when non-null
  const Column* const* slot_columns = nullptr;   // cursor mode: slot -> column
  const size_t* slot_table = nullptr;            // slot -> owning table index
  const size_t* cursors = nullptr;               // per-table current row

  Value Get(int slot) const {
    if (values != nullptr) return values[slot];
    return slot_columns[slot]->GetValue(cursors[slot_table[slot]]);
  }
};

struct SlotInfo {
  std::string table_alias;  // effective alias of the owning table
  std::string column;
  ValueType type;
};

bool NameEq(const std::string& a, const std::string& b) {
  return EqualsIgnoreCase(a, b);
}

// ---------------------------------------------------------------------------
// Binder: resolves column references to input slots and collects aggregate
// function calls.
// ---------------------------------------------------------------------------

bool IsAggregateFunction(const std::string& upper_name) {
  return upper_name == "COUNT" || upper_name == "SUM" ||
         upper_name == "AVG" || upper_name == "MIN" || upper_name == "MAX";
}

class Binder {
 public:
  explicit Binder(std::vector<SlotInfo> slots) : slots_(std::move(slots)) {}

  const std::vector<SlotInfo>& slots() const { return slots_; }
  const std::vector<Expr*>& aggregates() const { return aggregates_; }

  Result<int> Resolve(const std::string& table,
                      const std::string& column) const {
    int found = -1;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!table.empty() && !NameEq(slots_[i].table_alias, table)) continue;
      if (!NameEq(slots_[i].column, column)) continue;
      if (found != -1) {
        return Status::InvalidArgument("ambiguous column: " + column);
      }
      found = static_cast<int>(i);
    }
    if (found == -1) {
      std::string qualified = table.empty() ? column : table + "." + column;
      return Status::NotFound("unknown column: " + qualified);
    }
    return found;
  }

  // Binds `e`, recording aggregate calls. `allow_aggregates` is false
  // inside aggregate arguments and in WHERE.
  Status Bind(Expr* e, bool allow_aggregates) {
    switch (e->kind) {
      case ExprKind::kLiteral:
        return Status::OK();
      case ExprKind::kColumnRef: {
        GALAXY_ASSIGN_OR_RETURN(e->bound_slot, Resolve(e->table, e->column));
        return Status::OK();
      }
      case ExprKind::kUnary:
        return Bind(e->left.get(), allow_aggregates);
      case ExprKind::kBinary:
        GALAXY_RETURN_IF_ERROR(Bind(e->left.get(), allow_aggregates));
        return Bind(e->right.get(), allow_aggregates);
      case ExprKind::kFunctionCall: {
        if (IsAggregateFunction(e->function)) {
          if (!allow_aggregates) {
            return Status::InvalidArgument(
                "aggregate function not allowed here: " + e->function);
          }
          if (!e->star_arg) {
            if (e->args.size() != 1) {
              return Status::InvalidArgument(e->function +
                                             " takes one argument");
            }
            GALAXY_RETURN_IF_ERROR(
                Bind(e->args[0].get(), /*allow_aggregates=*/false));
          } else if (e->function != "COUNT") {
            return Status::InvalidArgument(e->function +
                                           "(*) is not supported");
          }
          e->agg_slot = static_cast<int>(aggregates_.size());
          aggregates_.push_back(e);
          return Status::OK();
        }
        // Scalar functions.
        if (e->function == "ABS" || e->function == "ROUND") {
          if (e->args.size() != 1 || e->star_arg) {
            return Status::InvalidArgument(e->function +
                                           " takes one argument");
          }
          return Bind(e->args[0].get(), allow_aggregates);
        }
        return Status::Unimplemented("unknown function: " + e->function);
      }
      case ExprKind::kInSubquery:
        // The subquery is bound and executed in its own scope.
        return Bind(e->left.get(), allow_aggregates);
      case ExprKind::kInList: {
        GALAXY_RETURN_IF_ERROR(Bind(e->left.get(), allow_aggregates));
        for (ExprPtr& v : e->in_list) {
          GALAXY_RETURN_IF_ERROR(Bind(v.get(), allow_aggregates));
        }
        return Status::OK();
      }
      case ExprKind::kIsNull:
        return Bind(e->left.get(), allow_aggregates);
      case ExprKind::kLike:
        GALAXY_RETURN_IF_ERROR(Bind(e->left.get(), allow_aggregates));
        return Bind(e->right.get(), allow_aggregates);
      case ExprKind::kCase: {
        if (e->case_base != nullptr) {
          GALAXY_RETURN_IF_ERROR(Bind(e->case_base.get(), allow_aggregates));
        }
        for (size_t i = 0; i < e->case_when.size(); ++i) {
          GALAXY_RETURN_IF_ERROR(
              Bind(e->case_when[i].get(), allow_aggregates));
          GALAXY_RETURN_IF_ERROR(
              Bind(e->case_then[i].get(), allow_aggregates));
        }
        if (e->case_else != nullptr) {
          return Bind(e->case_else.get(), allow_aggregates);
        }
        return Status::OK();
      }
      case ExprKind::kExists:
        // The subquery is bound and executed in its own scope.
        return Status::OK();
    }
    return Status::Internal("unhandled expression kind in Bind");
  }

  // True if the (bound or unbound) expression contains an aggregate call.
  static bool ContainsAggregate(const Expr* e) {
    if (e == nullptr) return false;
    switch (e->kind) {
      case ExprKind::kFunctionCall:
        if (IsAggregateFunction(e->function)) return true;
        for (const ExprPtr& a : e->args) {
          if (ContainsAggregate(a.get())) return true;
        }
        return false;
      case ExprKind::kUnary:
        return ContainsAggregate(e->left.get());
      case ExprKind::kBinary:
        return ContainsAggregate(e->left.get()) ||
               ContainsAggregate(e->right.get());
      case ExprKind::kInSubquery:
      case ExprKind::kIsNull:
        return ContainsAggregate(e->left.get());
      case ExprKind::kInList: {
        if (ContainsAggregate(e->left.get())) return true;
        for (const ExprPtr& v : e->in_list) {
          if (ContainsAggregate(v.get())) return true;
        }
        return false;
      }
      case ExprKind::kLike:
        return ContainsAggregate(e->left.get()) ||
               ContainsAggregate(e->right.get());
      case ExprKind::kCase: {
        if (ContainsAggregate(e->case_base.get())) return true;
        for (size_t i = 0; i < e->case_when.size(); ++i) {
          if (ContainsAggregate(e->case_when[i].get())) return true;
          if (ContainsAggregate(e->case_then[i].get())) return true;
        }
        return ContainsAggregate(e->case_else.get());
      }
      default:
        return false;
    }
  }

 private:
  std::vector<SlotInfo> slots_;
  std::vector<Expr*> aggregates_;
};

// ---------------------------------------------------------------------------
// Expression evaluation.
// ---------------------------------------------------------------------------

struct SubqueryCache {
  std::unordered_set<Value, ValueHash> values;
  bool has_null = false;
};

struct EvalContext {
  const Database* db = nullptr;
  const RowView* row = nullptr;             // slot source
  const std::vector<Value>* aggs = nullptr; // aggregate results (grouped)
  std::map<const Expr*, SubqueryCache>* subqueries = nullptr;
  std::map<const Expr*, bool>* exists_cache = nullptr;
};

// SQL LIKE pattern matching: '%' matches any run (including empty), '_'
// matches exactly one character; ASCII case-insensitive (sqlite default).
// Iterative two-pointer matching with backtracking to the last '%'.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || lower(pattern[p]) == lower(text[t]))) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> Eval(const Expr* e, EvalContext& ctx);

Result<const SubqueryCache*> MaterializeSubquery(const Expr* e,
                                                 EvalContext& ctx) {
  GALAXY_CHECK(ctx.subqueries != nullptr);
  auto it = ctx.subqueries->find(e);
  if (it != ctx.subqueries->end()) return &it->second;
  GALAXY_CHECK(ctx.db != nullptr);
  GALAXY_ASSIGN_OR_RETURN(Table result,
                          ExecuteSelect(*ctx.db, *e->subquery));
  if (result.num_columns() != 1) {
    return Status::InvalidArgument(
        "IN subquery must return exactly one column");
  }
  SubqueryCache cache;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    Value v = result.at(r, 0);
    if (v.is_null()) {
      cache.has_null = true;
    } else {
      cache.values.insert(std::move(v));
    }
  }
  auto [ins, _] = ctx.subqueries->emplace(e, std::move(cache));
  return &ins->second;
}

Result<Value> EvalIn(const Expr* e, bool found, bool set_has_null) {
  // SQL 3VL: x IN S is TRUE if found, NULL if not found but S has NULL,
  // FALSE otherwise; NOT IN negates with NULL preserved.
  Value v;
  if (found) {
    v = Value(int64_t{1});
  } else if (set_has_null) {
    v = Value::Null();
  } else {
    v = Value(int64_t{0});
  }
  if (e->negated) return EvalUnary(UnaryOp::kNot, v);
  return v;
}

Result<Value> Eval(const Expr* e, EvalContext& ctx) {
  switch (e->kind) {
    case ExprKind::kLiteral:
      return e->literal;
    case ExprKind::kColumnRef: {
      GALAXY_CHECK_GE(e->bound_slot, 0) << "unbound column " << e->column;
      GALAXY_CHECK(ctx.row != nullptr);
      return ctx.row->Get(e->bound_slot);
    }
    case ExprKind::kUnary: {
      GALAXY_ASSIGN_OR_RETURN(Value v, Eval(e->left.get(), ctx));
      return EvalUnary(e->unary_op, v);
    }
    case ExprKind::kBinary: {
      // Short-circuit logic operators.
      if (e->binary_op == BinaryOp::kAnd) {
        GALAXY_ASSIGN_OR_RETURN(Value l, Eval(e->left.get(), ctx));
        if (!l.is_null()) {
          GALAXY_ASSIGN_OR_RETURN(bool lt, ValueIsTrue(l));
          if (!lt) return Value(int64_t{0});
        }
        GALAXY_ASSIGN_OR_RETURN(Value r, Eval(e->right.get(), ctx));
        return EvalBinary(BinaryOp::kAnd, l, r);
      }
      if (e->binary_op == BinaryOp::kOr) {
        GALAXY_ASSIGN_OR_RETURN(Value l, Eval(e->left.get(), ctx));
        if (!l.is_null()) {
          GALAXY_ASSIGN_OR_RETURN(bool lt, ValueIsTrue(l));
          if (lt) return Value(int64_t{1});
        }
        GALAXY_ASSIGN_OR_RETURN(Value r, Eval(e->right.get(), ctx));
        return EvalBinary(BinaryOp::kOr, l, r);
      }
      GALAXY_ASSIGN_OR_RETURN(Value l, Eval(e->left.get(), ctx));
      GALAXY_ASSIGN_OR_RETURN(Value r, Eval(e->right.get(), ctx));
      return EvalBinary(e->binary_op, l, r);
    }
    case ExprKind::kFunctionCall: {
      if (e->agg_slot >= 0) {
        GALAXY_CHECK(ctx.aggs != nullptr)
            << "aggregate evaluated outside a grouped context";
        return (*ctx.aggs)[e->agg_slot];
      }
      GALAXY_ASSIGN_OR_RETURN(Value v, Eval(e->args[0].get(), ctx));
      if (v.is_null()) return v;
      if (e->function == "ABS") {
        if (v.type() == ValueType::kInt64) {
          return Value(v.AsInt64() < 0 ? -v.AsInt64() : v.AsInt64());
        }
        GALAXY_ASSIGN_OR_RETURN(double d, v.ToDouble());
        return Value(d < 0 ? -d : d);
      }
      if (e->function == "ROUND") {
        GALAXY_ASSIGN_OR_RETURN(double d, v.ToDouble());
        return Value(static_cast<double>(llround(d)));
      }
      return Status::Unimplemented("unknown function: " + e->function);
    }
    case ExprKind::kInSubquery: {
      GALAXY_ASSIGN_OR_RETURN(Value needle, Eval(e->left.get(), ctx));
      GALAXY_ASSIGN_OR_RETURN(const SubqueryCache* cache,
                              MaterializeSubquery(e, ctx));
      if (needle.is_null()) return Value::Null();
      bool found = cache->values.contains(needle);
      return EvalIn(e, found, cache->has_null);
    }
    case ExprKind::kInList: {
      GALAXY_ASSIGN_OR_RETURN(Value needle, Eval(e->left.get(), ctx));
      if (needle.is_null()) return Value::Null();
      bool found = false;
      bool has_null = false;
      for (const ExprPtr& item : e->in_list) {
        GALAXY_ASSIGN_OR_RETURN(Value v, Eval(item.get(), ctx));
        if (v.is_null()) {
          has_null = true;
        } else if (v == needle) {
          found = true;
          break;
        }
      }
      return EvalIn(e, found, has_null);
    }
    case ExprKind::kIsNull: {
      GALAXY_ASSIGN_OR_RETURN(Value v, Eval(e->left.get(), ctx));
      bool is_null = v.is_null();
      bool result = e->negated ? !is_null : is_null;
      return Value(result ? int64_t{1} : int64_t{0});
    }
    case ExprKind::kLike: {
      GALAXY_ASSIGN_OR_RETURN(Value text, Eval(e->left.get(), ctx));
      GALAXY_ASSIGN_OR_RETURN(Value pattern, Eval(e->right.get(), ctx));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      if (text.type() != ValueType::kString ||
          pattern.type() != ValueType::kString) {
        return Status::TypeError("LIKE requires string operands");
      }
      bool match = LikeMatch(text.AsString(), pattern.AsString());
      if (e->negated) match = !match;
      return Value(match ? int64_t{1} : int64_t{0});
    }
    case ExprKind::kCase: {
      Value base;
      if (e->case_base != nullptr) {
        GALAXY_ASSIGN_OR_RETURN(base, Eval(e->case_base.get(), ctx));
      }
      for (size_t i = 0; i < e->case_when.size(); ++i) {
        GALAXY_ASSIGN_OR_RETURN(Value when, Eval(e->case_when[i].get(), ctx));
        bool taken;
        if (e->case_base != nullptr) {
          // Simple CASE: equality against the base; NULL matches nothing.
          taken = !base.is_null() && !when.is_null() && base == when;
        } else {
          if (when.is_null()) continue;
          GALAXY_ASSIGN_OR_RETURN(taken, ValueIsTrue(when));
        }
        if (taken) return Eval(e->case_then[i].get(), ctx);
      }
      if (e->case_else != nullptr) return Eval(e->case_else.get(), ctx);
      return Value::Null();
    }
    case ExprKind::kExists: {
      GALAXY_CHECK(ctx.exists_cache != nullptr);
      auto it = ctx.exists_cache->find(e);
      if (it == ctx.exists_cache->end()) {
        GALAXY_CHECK(ctx.db != nullptr);
        GALAXY_ASSIGN_OR_RETURN(Table result,
                                ExecuteSelect(*ctx.db, *e->subquery));
        it = ctx.exists_cache->emplace(e, result.num_rows() > 0).first;
      }
      bool exists = it->second;
      if (e->negated) exists = !exists;
      return Value(exists ? int64_t{1} : int64_t{0});
    }
  }
  return Status::Internal("unhandled expression kind in Eval");
}

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

struct AggState {
  uint64_t rows = 0;      // COUNT(*)
  uint64_t non_null = 0;  // COUNT(x)
  bool sum_is_int = true;
  int64_t isum = 0;
  double dsum = 0.0;
  Value min;
  Value max;

  void Accumulate(const Value& v) {
    ++rows;
    if (v.is_null()) return;
    ++non_null;
    if (v.type() == ValueType::kInt64 && sum_is_int) {
      isum += v.AsInt64();
    } else if (v.is_numeric()) {
      if (sum_is_int) {
        dsum = static_cast<double>(isum);
        sum_is_int = false;
      }
      dsum += v.ToDouble().value();
    }
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || max < v) max = v;
  }

  Result<Value> Finish(const std::string& function, bool star) const {
    if (function == "COUNT") {
      return Value(static_cast<int64_t>(star ? rows : non_null));
    }
    if (function == "SUM") {
      if (non_null == 0) return Value::Null();
      return sum_is_int ? Value(isum) : Value(dsum);
    }
    if (function == "AVG") {
      if (non_null == 0) return Value::Null();
      double total = sum_is_int ? static_cast<double>(isum) : dsum;
      return Value(total / static_cast<double>(non_null));
    }
    if (function == "MIN") return min;
    if (function == "MAX") return max;
    return Status::Internal("unknown aggregate " + function);
  }
};

// Replays AggState::Accumulate over a typed column slice without boxing.
// Must reproduce the scalar semantics exactly: `rows` counts every input
// (including NULLs), sums stay integral until a double shows up, min/max
// follow Value comparison order (so NaN behaves the same), and string
// columns contribute min/max but leave the sums untouched.
void FoldColumnAgg(const Column& col, const std::vector<uint32_t>& rows,
                   AggState* st) {
  st->rows += rows.size();
  switch (col.type()) {
    case ValueType::kNull:
      return;
    case ValueType::kInt64: {
      std::span<const int64_t> v = col.ints();
      bool any = false;
      int64_t mn = 0, mx = 0, sum = 0;
      uint64_t nn = 0;
      for (uint32_t r : rows) {
        if (col.is_null(r)) continue;
        const int64_t x = v[r];
        if (!any) {
          mn = mx = x;
          any = true;
        } else {
          if (x < mn) mn = x;
          if (mx < x) mx = x;
        }
        sum += x;
        ++nn;
      }
      if (nn == 0) return;
      st->non_null += nn;
      st->isum += sum;  // a fresh state is always still integral here
      st->min = Value(mn);
      st->max = Value(mx);
      return;
    }
    case ValueType::kDouble: {
      std::span<const double> v = col.doubles();
      bool any = false;
      double mn = 0.0, mx = 0.0, sum = 0.0;
      uint64_t nn = 0;
      for (uint32_t r : rows) {
        if (col.is_null(r)) continue;
        const double x = v[r];
        if (!any) {
          mn = mx = x;
          any = true;
        } else {
          if (x < mn) mn = x;
          if (mx < x) mx = x;
        }
        sum += x;
        ++nn;
      }
      if (nn == 0) return;
      st->non_null += nn;
      st->sum_is_int = false;
      st->dsum = static_cast<double>(st->isum) + sum;
      st->min = Value(mn);
      st->max = Value(mx);
      return;
    }
    case ValueType::kString: {
      std::span<const std::string> v = col.strings();
      const std::string* mn = nullptr;
      const std::string* mx = nullptr;
      uint64_t nn = 0;
      for (uint32_t r : rows) {
        if (col.is_null(r)) continue;
        const std::string& x = v[r];
        if (mn == nullptr) {
          mn = mx = &x;
        } else {
          if (x < *mn) mn = &x;
          if (*mx < x) mx = &x;
        }
        ++nn;
      }
      if (nn == 0) return;
      st->non_null += nn;
      st->min = Value(*mn);
      st->max = Value(*mx);
      return;
    }
  }
}

// Hash of a vector<Value> grouping key.
struct KeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : key) {
      h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct GroupAccum {
  std::vector<Value> first_row;  // materialized first input row
  std::vector<AggState> agg_states;
  // Per-record skyline attributes, flattened row-major (dims per record):
  // the dense buffer hands off to core::Group without re-densifying.
  std::vector<double> skyline_buf;
};

// ---------------------------------------------------------------------------
// Vectorized WHERE: conjuncts compiled to typed selection kernels.
// ---------------------------------------------------------------------------

// One comparison or null test over column storage, applied to a selection
// vector without boxing. Only shapes whose scalar evaluation cannot differ
// are compiled (numeric-vs-numeric or string-vs-string comparisons with
// non-null literals); everything else falls back to per-row Eval.
struct ColumnPredicate {
  enum class Kind { kCmpConst, kCmpCol, kIsNull, kIsNotNull };
  Kind kind = Kind::kCmpConst;
  BinaryOp op = BinaryOp::kEq;
  size_t lhs = 0;  // column index
  size_t rhs = 0;  // kCmpCol only
  Value constant;  // kCmpConst only
};

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNotEq:
    case BinaryOp::kLt:
    case BinaryOp::kLtEq:
    case BinaryOp::kGt:
    case BinaryOp::kGtEq:
      return true;
    default:
      return false;
  }
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLtEq:
      return BinaryOp::kGtEq;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGtEq:
      return BinaryOp::kLtEq;
    default:
      return op;  // kEq / kNotEq are symmetric
  }
}

bool IsNumericType(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

std::optional<ColumnPredicate> CompilePredicate(const Expr* e,
                                                const Table& table) {
  auto column_of = [&](const Expr* x) -> std::optional<size_t> {
    if (x != nullptr && x->kind == ExprKind::kColumnRef && x->bound_slot >= 0 &&
        static_cast<size_t>(x->bound_slot) < table.num_columns()) {
      return static_cast<size_t>(x->bound_slot);
    }
    return std::nullopt;
  };
  if (e->kind == ExprKind::kIsNull) {
    std::optional<size_t> c = column_of(e->left.get());
    if (!c.has_value()) return std::nullopt;
    ColumnPredicate p;
    p.kind = e->negated ? ColumnPredicate::Kind::kIsNotNull
                        : ColumnPredicate::Kind::kIsNull;
    p.lhs = *c;
    return p;
  }
  if (e->kind != ExprKind::kBinary || !IsComparisonOp(e->binary_op)) {
    return std::nullopt;
  }
  auto comparable = [](ValueType a, ValueType b) {
    return (IsNumericType(a) && IsNumericType(b)) ||
           (a == ValueType::kString && b == ValueType::kString);
  };
  std::optional<size_t> lc = column_of(e->left.get());
  std::optional<size_t> rc = column_of(e->right.get());
  if (lc.has_value() && rc.has_value()) {
    if (!comparable(table.column(*lc).type(), table.column(*rc).type())) {
      return std::nullopt;
    }
    ColumnPredicate p;
    p.kind = ColumnPredicate::Kind::kCmpCol;
    p.op = e->binary_op;
    p.lhs = *lc;
    p.rhs = *rc;
    return p;
  }
  ColumnPredicate p;
  p.kind = ColumnPredicate::Kind::kCmpConst;
  if (lc.has_value() && e->right->kind == ExprKind::kLiteral) {
    p.op = e->binary_op;
    p.lhs = *lc;
    p.constant = e->right->literal;
  } else if (rc.has_value() && e->left->kind == ExprKind::kLiteral) {
    p.op = FlipComparison(e->binary_op);  // literal on the left: flip
    p.lhs = *rc;
    p.constant = e->left->literal;
  } else {
    return std::nullopt;
  }
  if (p.constant.is_null()) return std::nullopt;
  if (!comparable(table.column(p.lhs).type(), p.constant.type())) {
    return std::nullopt;
  }
  return p;
}

// Derives lt/gt/eq exactly like value_ops Comparison(): eq is !(lt||gt), so
// NaN compares "equal" to everything — the kernels must keep that quirk
// rather than using operator==.
template <typename T>
bool ComparePass(BinaryOp op, const T& a, const T& b) {
  const bool lt = a < b;
  const bool gt = b < a;
  switch (op) {
    case BinaryOp::kEq:
      return !lt && !gt;
    case BinaryOp::kNotEq:
      return lt || gt;
    case BinaryOp::kLt:
      return lt;
    case BinaryOp::kLtEq:
      return !gt;  // lt || eq
    case BinaryOp::kGt:
      return gt;
    case BinaryOp::kGtEq:
      return !lt;  // gt || eq
    default:
      return false;
  }
}

void ApplyPredicate(const ColumnPredicate& p, const Table& table,
                    std::vector<uint32_t>* sel) {
  std::vector<uint32_t>& s = *sel;
  size_t w = 0;
  const Column& l = table.column(p.lhs);
  switch (p.kind) {
    case ColumnPredicate::Kind::kIsNull:
      for (uint32_t r : s) {
        if (l.is_null(r)) s[w++] = r;
      }
      break;
    case ColumnPredicate::Kind::kIsNotNull:
      for (uint32_t r : s) {
        if (!l.is_null(r)) s[w++] = r;
      }
      break;
    case ColumnPredicate::Kind::kCmpConst: {
      if (l.type() == ValueType::kString) {
        const std::string& lit = p.constant.AsString();
        std::span<const std::string> v = l.strings();
        for (uint32_t r : s) {
          if (!l.is_null(r) && ComparePass(p.op, v[r], lit)) s[w++] = r;
        }
      } else if (l.type() == ValueType::kInt64 &&
                 p.constant.type() == ValueType::kInt64) {
        // int-vs-int compares integrally (Value semantics: no promotion).
        const int64_t lit = p.constant.AsInt64();
        std::span<const int64_t> v = l.ints();
        for (uint32_t r : s) {
          if (!l.is_null(r) && ComparePass(p.op, v[r], lit)) s[w++] = r;
        }
      } else {
        const double lit = p.constant.type() == ValueType::kInt64
                               ? static_cast<double>(p.constant.AsInt64())
                               : p.constant.AsDouble();
        if (l.type() == ValueType::kInt64) {
          std::span<const int64_t> v = l.ints();
          for (uint32_t r : s) {
            if (!l.is_null(r) &&
                ComparePass(p.op, static_cast<double>(v[r]), lit)) {
              s[w++] = r;
            }
          }
        } else {
          std::span<const double> v = l.doubles();
          for (uint32_t r : s) {
            if (!l.is_null(r) && ComparePass(p.op, v[r], lit)) s[w++] = r;
          }
        }
      }
      break;
    }
    case ColumnPredicate::Kind::kCmpCol: {
      const Column& rc = table.column(p.rhs);
      if (l.type() == ValueType::kString) {  // both string (checked above)
        std::span<const std::string> a = l.strings();
        std::span<const std::string> b = rc.strings();
        for (uint32_t r : s) {
          if (!l.is_null(r) && !rc.is_null(r) &&
              ComparePass(p.op, a[r], b[r])) {
            s[w++] = r;
          }
        }
      } else if (l.type() == ValueType::kInt64 &&
                 rc.type() == ValueType::kInt64) {
        std::span<const int64_t> a = l.ints();
        std::span<const int64_t> b = rc.ints();
        for (uint32_t r : s) {
          if (!l.is_null(r) && !rc.is_null(r) &&
              ComparePass(p.op, a[r], b[r])) {
            s[w++] = r;
          }
        }
      } else {
        // Mixed numeric: promote both sides to double per Value semantics.
        auto cell = [](const Column& c, uint32_t r) {
          return c.type() == ValueType::kInt64
                     ? static_cast<double>(c.ints()[r])
                     : c.doubles()[r];
        };
        for (uint32_t r : s) {
          if (!l.is_null(r) && !rc.is_null(r) &&
              ComparePass(p.op, cell(l, r), cell(rc, r))) {
            s[w++] = r;
          }
        }
      }
      break;
    }
  }
  s.resize(w);
}

// ---------------------------------------------------------------------------
// Output assembly helpers.
// ---------------------------------------------------------------------------

struct OutputColumn {
  std::string name;
  const Expr* expr = nullptr;  // null for star expansion slots
  int star_slot = -1;
};

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 14695981039346656037ULL;
    for (const Value& v : row) {
      h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

// Gathers `rows` of `src` into a new owned column — the single copy in the
// columnar projection path.
Column GatherColumn(const Column& src, const std::vector<uint32_t>& rows) {
  Column out{src.type()};
  out.Reserve(rows.size());
  switch (src.type()) {
    case ValueType::kNull:
      for (size_t i = 0; i < rows.size(); ++i) out.AppendNull();
      break;
    case ValueType::kInt64: {
      std::span<const int64_t> v = src.ints();
      for (uint32_t r : rows) {
        if (src.is_null(r)) {
          out.AppendNull();
        } else {
          out.AppendInt64(v[r]);
        }
      }
      break;
    }
    case ValueType::kDouble: {
      std::span<const double> v = src.doubles();
      for (uint32_t r : rows) {
        if (src.is_null(r)) {
          out.AppendNull();
        } else {
          out.AppendDouble(v[r]);
        }
      }
      break;
    }
    case ValueType::kString: {
      std::span<const std::string> v = src.strings();
      for (uint32_t r : rows) {
        if (src.is_null(r)) {
          out.AppendNull();
        } else {
          out.AppendString(v[r]);
        }
      }
      break;
    }
  }
  return out;
}

// Single-pass output materialization: one ValueColumnBuilder per column
// replaces the old full-scan InferType plus row-at-a-time TableBuilder
// rebuild. All-null columns take the per-column fallback type.
Result<Table> RowsToTable(const std::vector<std::string>& names,
                          const std::vector<ValueType>& fallbacks,
                          std::vector<Row> rows) {
  std::vector<ValueColumnBuilder> builders;
  builders.reserve(names.size());
  for (const std::string& name : names) builders.emplace_back(name);
  for (const Row& row : rows) {
    // Every row here was already streamed through (and charged by) the
    // operator pipeline that produced it, so the materialization size is
    // bounded by budget the query has already spent; recharging it would
    // double-bill output rows against the comparison budget.
    // galaxy-analyze: allow(budget-reach)
    for (size_t c = 0; c < builders.size(); ++c) {
      GALAXY_RETURN_IF_ERROR(builders[c].Append(row[c]));
    }
  }
  std::vector<ColumnDef> defs;
  std::vector<Column> columns;
  defs.reserve(names.size());
  columns.reserve(names.size());
  for (size_t c = 0; c < builders.size(); ++c) {
    const ValueType type = builders[c].type() == ValueType::kNull
                               ? fallbacks[c]
                               : builders[c].type();
    defs.push_back({names[c], type});
    columns.push_back(std::move(builders[c]).Build(fallbacks[c]));
  }
  return Table(Schema(std::move(defs)), std::move(columns));
}

// Collects the bound input slots referenced by an expression (subquery
// bodies excluded: they bind in their own scope).
void CollectSlots(const Expr* e, std::vector<int>* slots) {
  if (e == nullptr) return;
  switch (e->kind) {
    case ExprKind::kColumnRef:
      if (e->bound_slot >= 0) slots->push_back(e->bound_slot);
      return;
    case ExprKind::kUnary:
    case ExprKind::kIsNull:
    case ExprKind::kInSubquery:
      CollectSlots(e->left.get(), slots);
      return;
    case ExprKind::kBinary:
    case ExprKind::kLike:
      CollectSlots(e->left.get(), slots);
      CollectSlots(e->right.get(), slots);
      return;
    case ExprKind::kFunctionCall:
      for (const ExprPtr& a : e->args) CollectSlots(a.get(), slots);
      return;
    case ExprKind::kInList:
      CollectSlots(e->left.get(), slots);
      for (const ExprPtr& v : e->in_list) CollectSlots(v.get(), slots);
      return;
    case ExprKind::kCase:
      CollectSlots(e->case_base.get(), slots);
      for (const ExprPtr& w : e->case_when) CollectSlots(w.get(), slots);
      for (const ExprPtr& t : e->case_then) CollectSlots(t.get(), slots);
      CollectSlots(e->case_else.get(), slots);
      return;
    default:
      return;
  }
}

// Charges `n` streamed rows to the control plane in batch-sized chunks, so
// the vectorized pipeline trips within the same tolerance as the per-row
// scalar loop without a branch per row.
Status ChargeRows(core::ExecutionContext* exec, uint64_t n) {
  if (exec == nullptr) return Status::OK();
  while (n > 0) {
    const uint64_t step =
        std::min<uint64_t>(n, core::ExecutionContext::kChargeBatch);
    if (!exec->Charge(step)) return exec->status();
    n -= step;
  }
  return Status::OK();
}

// Applies the aggregate-skyline step (Definition 2 / GAMMA RANK) to groups
// given as dense per-group attribute buffers. Returns the surviving indices
// into `bufs`, in output order. Shared by the scalar and batch pipelines.
Result<std::vector<size_t>> AggregateSkylineFilter(
    size_t dims, std::vector<std::vector<double>> bufs, bool rank,
    std::optional<double> gamma, const ExecOptions& exec_options,
    ExecStats* stats) {
  core::GroupedDataset dataset =
      core::GroupedDataset::FromDenseBuffers(dims, std::move(bufs));
  std::vector<size_t> filtered;
  if (rank) {
    GALAXY_ASSIGN_OR_RETURN(
        std::vector<core::RankedGroup> ranked,
        core::RankByGammaBounded(dataset, exec_options.exec));
    for (const core::RankedGroup& rg : ranked) {
      if (!rg.always_dominated) filtered.push_back(rg.id);
    }
    return filtered;
  }
  core::AggregateSkylineOptions options;
  options.gamma = gamma.value_or(0.5);
  // kAuto is the served configuration, chosen in core (safe-mode IN).
  options.algorithm = core::Algorithm::kAuto;
  options.exec = exec_options.exec;
  options.allow_approximate = exec_options.allow_approximate;
  GALAXY_ASSIGN_OR_RETURN(core::AggregateSkylineResult sky,
                          core::ComputeAggregateSkylineBounded(dataset,
                                                               options));
  if (stats != nullptr) {
    stats->skyline_quality = sky.quality;
    stats->skyline_stats = sky.stats;
  }
  for (uint32_t id : sky.skyline) filtered.push_back(id);
  return filtered;
}

}  // namespace

// Executes one SELECT (without UNION chaining).
static Result<Table> ExecuteSingleSelect(const Database& db, SelectStmt& stmt,
                                         const ExecOptions& exec_options,
                                         ExecStats* stats) {
  core::ExecutionContext* exec = exec_options.exec;
  // ---- Resolve FROM tables and build the slot layout. -------------------
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is required");
  }
  // Each table is a pinned copy-on-update snapshot (sql/catalog.h): the
  // shared_ptr keeps it alive for the whole query even if a concurrent
  // Register replaces the catalog entry mid-run.
  std::vector<std::shared_ptr<const Table>> pinned;
  std::vector<const Table*> tables;
  std::vector<SlotInfo> slots;
  std::vector<size_t> table_first_slot;
  for (const TableRef& ref : stmt.from) {
    GALAXY_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                            db.GetTable(ref.table_name));
    table_first_slot.push_back(slots.size());
    for (const ColumnDef& c : t->schema().columns()) {
      slots.push_back({ref.effective_alias(), c.name, c.type});
    }
    tables.push_back(t.get());
    pinned.push_back(std::move(t));
  }

  Binder binder(std::move(slots));

  // ---- Bind expressions. -------------------------------------------------
  if (stmt.where != nullptr) {
    GALAXY_RETURN_IF_ERROR(
        binder.Bind(stmt.where.get(), /*allow_aggregates=*/false));
  }
  for (ExprPtr& g : stmt.group_by) {
    GALAXY_RETURN_IF_ERROR(binder.Bind(g.get(), /*allow_aggregates=*/false));
  }
  bool has_aggregates = false;
  for (const SelectItem& item : stmt.items) {
    if (!item.star && Binder::ContainsAggregate(item.expr.get())) {
      has_aggregates = true;
    }
  }
  if (Binder::ContainsAggregate(stmt.having.get())) has_aggregates = true;
  const bool grouped = !stmt.group_by.empty() || has_aggregates;

  if (stmt.having != nullptr && !grouped) {
    return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
  }
  if (stmt.skyline_rank && stmt.group_by.empty()) {
    return Status::InvalidArgument(
        "SKYLINE OF ... GAMMA RANK requires GROUP BY (it ranks groups)");
  }
  // Definition 3 needs γ ≥ 0.5 for asymmetry; reject here so a bad literal
  // is a clean InvalidArgument, not a core-layer precondition failure.
  if (stmt.skyline_gamma.has_value() &&
      !(*stmt.skyline_gamma >= 0.5 && *stmt.skyline_gamma <= 1.0)) {
    return Status::InvalidArgument("GAMMA must be in [0.5, 1]");
  }
  for (SelectItem& item : stmt.items) {
    if (item.star) {
      if (grouped) {
        return Status::InvalidArgument("SELECT * cannot be used with GROUP BY");
      }
      continue;
    }
    GALAXY_RETURN_IF_ERROR(binder.Bind(item.expr.get(), grouped));
  }
  if (stmt.having != nullptr) {
    GALAXY_RETURN_IF_ERROR(binder.Bind(stmt.having.get(), true));
  }
  for (SkylineItem& item : stmt.skyline) {
    GALAXY_RETURN_IF_ERROR(
        binder.Bind(item.expr.get(), /*allow_aggregates=*/false));
  }
  for (OrderItem& item : stmt.order_by) {
    // ORDER BY may name a select alias; rewrite to the aliased expression's
    // output, otherwise bind against the input.
    bool is_alias = false;
    if (item.expr->kind == ExprKind::kColumnRef && item.expr->table.empty()) {
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (!stmt.items[i].star &&
            NameEq(stmt.items[i].alias, item.expr->column)) {
          item.expr->bound_slot = -2 - static_cast<int>(i);  // output ref
          is_alias = true;
          break;
        }
      }
    }
    if (!is_alias) {
      GALAXY_RETURN_IF_ERROR(binder.Bind(item.expr.get(), grouped));
    }
  }

  std::map<const Expr*, SubqueryCache> subquery_cache;
  std::map<const Expr*, bool> exists_cache;
  EvalContext ctx;
  ctx.db = &db;
  ctx.subqueries = &subquery_cache;
  ctx.exists_cache = &exists_cache;

  const size_t num_tables = tables.size();
  size_t total_slots = binder.slots().size();

  // ---- Predicate pushdown (multi-table FROM only): WHERE conjuncts whose
  // slots all belong to one table filter that table before the join. ------
  std::vector<std::vector<ExprPtr>> pushed(num_tables);
  if (num_tables > 1 && stmt.where != nullptr) {
    auto table_of_slot = [&](int slot) {
      size_t t = 0;
      while (t + 1 < num_tables &&
             static_cast<size_t>(slot) >= table_first_slot[t + 1]) {
        ++t;
      }
      return t;
    };
    std::vector<ExprPtr> residual;
    for (ExprPtr& conjunct : SplitConjuncts(std::move(stmt.where))) {
      std::vector<int> used;
      CollectSlots(conjunct.get(), &used);
      bool single = !used.empty();
      size_t table = single ? table_of_slot(used[0]) : 0;
      for (int s : used) {
        if (table_of_slot(s) != table) {
          single = false;
          break;
        }
      }
      if (single) {
        pushed[table].push_back(std::move(conjunct));
        if (stats != nullptr) ++stats->pushed_filters;
      } else {
        residual.push_back(std::move(conjunct));
      }
    }
    stmt.where = ConjoinAll(std::move(residual));
  }

  // ---- Hash equi-join detection (two-table FROM): a residual conjunct of
  // the form A.x = B.y becomes the join key; the probe replaces the
  // quadratic cross product. -----------------------------------------------
  ExprPtr join_key;  // the extracted equality, if any
  if (num_tables == 2 && stmt.where != nullptr) {
    std::vector<ExprPtr> residual;
    for (ExprPtr& conjunct : SplitConjuncts(std::move(stmt.where))) {
      bool is_key =
          join_key == nullptr && conjunct->kind == ExprKind::kBinary &&
          conjunct->binary_op == BinaryOp::kEq &&
          conjunct->left->kind == ExprKind::kColumnRef &&
          conjunct->right->kind == ExprKind::kColumnRef;
      if (is_key) {
        int slot_l = conjunct->left->bound_slot;
        int slot_r = conjunct->right->bound_slot;
        bool crosses =
            (static_cast<size_t>(slot_l) < table_first_slot[1]) !=
            (static_cast<size_t>(slot_r) < table_first_slot[1]);
        // Hash probing uses Value equality, which is only equivalent to the
        // SQL '=' operator when the column types are comparable (both
        // numeric or both string) — mismatches must keep erroring at
        // evaluation time.
        auto comparable = [&](ValueType a, ValueType b) {
          auto numeric = [](ValueType t) {
            return t == ValueType::kInt64 || t == ValueType::kDouble;
          };
          return (numeric(a) && numeric(b)) ||
                 (a == ValueType::kString && b == ValueType::kString);
        };
        if (crosses &&
            comparable(binder.slots()[slot_l].type,
                       binder.slots()[slot_r].type)) {
          join_key = std::move(conjunct);
          continue;
        }
      }
      residual.push_back(std::move(conjunct));
    }
    stmt.where = ConjoinAll(std::move(residual));
  }

  // ---- Build the output column list. -------------------------------------
  std::vector<OutputColumn> out_columns;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t i = 0; i < binder.slots().size(); ++i) {
        OutputColumn col;
        col.name = num_tables > 1 ? binder.slots()[i].table_alias + "." +
                                        binder.slots()[i].column
                                  : binder.slots()[i].column;
        col.star_slot = static_cast<int>(i);
        out_columns.push_back(std::move(col));
      }
    } else {
      OutputColumn col;
      col.name = !item.alias.empty() ? item.alias : item.expr->ToString();
      col.expr = item.expr.get();
      out_columns.push_back(std::move(col));
    }
  }

  // ---- Output rows (plus ORDER BY sort keys) and the projector. ----------
  std::vector<Row> out_rows;
  std::vector<std::vector<Value>> sort_keys;
  const bool need_sort = !stmt.order_by.empty();

  auto project = [&](EvalContext& rowctx) -> Status {
    Row out;
    out.reserve(out_columns.size());
    for (const OutputColumn& col : out_columns) {
      if (col.star_slot >= 0) {
        out.push_back(rowctx.row->Get(col.star_slot));
      } else {
        GALAXY_ASSIGN_OR_RETURN(Value v, Eval(col.expr, rowctx));
        out.push_back(std::move(v));
      }
    }
    if (need_sort) {
      std::vector<Value> keys;
      keys.reserve(stmt.order_by.size());
      for (const OrderItem& item : stmt.order_by) {
        if (item.expr->bound_slot <= -2) {
          keys.push_back(out[static_cast<size_t>(-2 - item.expr->bound_slot)]);
        } else {
          GALAXY_ASSIGN_OR_RETURN(Value v, Eval(item.expr.get(), rowctx));
          keys.push_back(std::move(v));
        }
      }
      sort_keys.push_back(std::move(keys));
    }
    out_rows.push_back(std::move(out));
    return Status::OK();
  };

  // ---- Cursor-mode row view over the base tables. ------------------------
  std::vector<const Column*> slot_cols;
  std::vector<size_t> slot_table(total_slots);
  std::vector<size_t> current(num_tables, 0);
  slot_cols.reserve(total_slots);
  {
    size_t slot = 0;
    for (size_t t = 0; t < num_tables; ++t) {
      for (size_t c = 0; c < tables[t]->num_columns(); ++c, ++slot) {
        slot_cols.push_back(&tables[t]->column(c));
        slot_table[slot] = t;
      }
    }
  }
  RowView scan_view;
  scan_view.slot_columns = slot_cols.data();
  scan_view.slot_table = slot_table.data();
  scan_view.cursors = current.data();

  const std::vector<Expr*>& agg_exprs = binder.aggregates();
  const bool vectorized = num_tables == 1 && !exec_options.force_scalar;

  if (vectorized) {
    // =======================================================================
    // Batch pipeline (single-table FROM): selection vectors over column
    // storage instead of per-row boxed evaluation. Behavior must be
    // indistinguishable from the scalar pipeline below (which still serves
    // multi-table FROMs and ExecOptions::force_scalar).
    // =======================================================================
    const Table& t0 = *tables[0];
    const size_t nrows = t0.num_rows();
    if (stats != nullptr) stats->cross_product_rows += nrows;
    // Charge parity with the scalar pipeline: one unit per scanned row plus
    // one per row streamed into WHERE.
    GALAXY_RETURN_IF_ERROR(ChargeRows(exec, nrows));
    GALAXY_RETURN_IF_ERROR(ChargeRows(exec, nrows));

    std::vector<uint32_t> sel(nrows);
    for (size_t i = 0; i < nrows; ++i) sel[i] = static_cast<uint32_t>(i);

    // WHERE: compiled conjuncts shrink the selection vector in place; the
    // rest evaluate per surviving row. Sequential conjunct filtering is
    // equivalent to per-row AND short-circuiting.
    if (stmt.where != nullptr) {
      for (ExprPtr& conjunct : SplitConjuncts(std::move(stmt.where))) {
        std::optional<ColumnPredicate> p =
            CompilePredicate(conjunct.get(), t0);
        if (p.has_value()) {
          ApplyPredicate(*p, t0, &sel);
          if (stats != nullptr) ++stats->vectorized_predicates;
          continue;
        }
        std::vector<uint32_t> out;
        out.reserve(sel.size());
        for (uint32_t r : sel) {
          current[0] = r;
          ctx.row = &scan_view;
          GALAXY_ASSIGN_OR_RETURN(Value keep, Eval(conjunct.get(), ctx));
          if (keep.is_null()) continue;
          GALAXY_ASSIGN_OR_RETURN(bool pass, ValueIsTrue(keep));
          if (pass) out.push_back(r);
        }
        sel = std::move(out);
      }
    }

    // Evaluates one SKYLINE OF dimension over the selection, passing each
    // row's value (negated for MIN dimensions) to `emit(i, value)` in
    // selection order, so callers write it straight to its destination.
    // Plain numeric columns copy without boxing; NULL/string cells box per
    // cell so the conversion error text matches the scalar pipeline.
    auto eval_skyline_dim = [&](const SkylineItem& item,
                                auto&& emit) -> Status {
      const double sign = item.maximize ? 1.0 : -1.0;
      const Expr* e = item.expr.get();
      if (e->kind == ExprKind::kColumnRef && e->bound_slot >= 0) {
        const Column& col = t0.column(static_cast<size_t>(e->bound_slot));
        if (col.type() == ValueType::kDouble && !col.has_nulls()) {
          std::span<const double> v = col.doubles();
          for (size_t i = 0; i < sel.size(); ++i) emit(i, sign * v[sel[i]]);
        } else if (col.type() == ValueType::kInt64 && !col.has_nulls()) {
          std::span<const int64_t> v = col.ints();
          for (size_t i = 0; i < sel.size(); ++i) {
            emit(i, sign * static_cast<double>(v[sel[i]]));
          }
        } else {
          for (size_t i = 0; i < sel.size(); ++i) {
            GALAXY_ASSIGN_OR_RETURN(double x,
                                    col.GetValue(sel[i]).ToDouble());
            emit(i, sign * x);
          }
        }
      } else {
        for (size_t i = 0; i < sel.size(); ++i) {
          current[0] = sel[i];
          ctx.row = &scan_view;
          GALAXY_ASSIGN_OR_RETURN(Value v, Eval(e, ctx));
          GALAXY_ASSIGN_OR_RETURN(double x, v.ToDouble());
          emit(i, sign * x);
        }
      }
      return Status::OK();
    };

    if (!grouped) {
      // Optional record skyline filter (SKYLINE OF without GROUP BY).
      if (!stmt.skyline.empty()) {
        const size_t d = stmt.skyline.size();
        std::vector<std::vector<double>> points(sel.size(),
                                                std::vector<double>(d));
        for (size_t k = 0; k < d; ++k) {
          GALAXY_RETURN_IF_ERROR(eval_skyline_dim(
              stmt.skyline[k], [&](size_t i, double x) { points[i][k] = x; }));
        }
        std::vector<size_t> keep =
            skyline::Compute(points, skyline::AllMax(d));
        std::vector<uint32_t> filtered;
        filtered.reserve(keep.size());
        for (size_t idx : keep) filtered.push_back(sel[idx]);
        sel = std::move(filtered);
      }

      // Columnar projection gather: when every output is a plain column and
      // no DISTINCT/ORDER BY reshapes the result, the output table is a
      // per-column gather — no boxed rows at all. LIMIT truncates the
      // selection first (a column gather cannot error, so this is safe).
      bool gatherable = !stmt.distinct && !need_sort;
      for (const OutputColumn& col : out_columns) {
        if (col.star_slot >= 0) continue;
        if (col.expr->kind != ExprKind::kColumnRef ||
            col.expr->bound_slot < 0) {
          gatherable = false;
          break;
        }
      }
      if (gatherable) {
        if (stmt.limit.has_value() && *stmt.limit >= 0 &&
            sel.size() > static_cast<size_t>(*stmt.limit)) {
          sel.resize(static_cast<size_t>(*stmt.limit));
        }
        if (stats != nullptr) ++stats->columnar_projections;
        std::vector<ColumnDef> defs;
        std::vector<Column> cols;
        defs.reserve(out_columns.size());
        cols.reserve(out_columns.size());
        for (const OutputColumn& col : out_columns) {
          const size_t src = col.star_slot >= 0
                                 ? static_cast<size_t>(col.star_slot)
                                 : static_cast<size_t>(col.expr->bound_slot);
          Column gathered = GatherColumn(t0.column(src), sel);
          // Typing parity with the scalar output path: an expression column
          // with no non-null output cells falls back to INT64.
          if (col.star_slot < 0 &&
              gathered.null_count() == gathered.size() &&
              gathered.type() != ValueType::kInt64) {
            Column conformed{ValueType::kInt64};
            for (size_t i = 0; i < gathered.size(); ++i) {
              conformed.AppendNull();
            }
            gathered = std::move(conformed);
          }
          defs.push_back({col.name, gathered.type()});
          cols.push_back(std::move(gathered));
        }
        return Table(Schema(std::move(defs)), std::move(cols));
      }

      for (uint32_t r : sel) {
        current[0] = r;
        ctx.row = &scan_view;
        GALAXY_RETURN_IF_ERROR(project(ctx));
      }
    } else {
      // ---- Grouping: dense group ids over the selection. ----------------
      // Each branch assigns row_gid; group_rows is filled after one
      // counting pass, each list reserved to its exact size.
      std::vector<uint32_t> row_gid(sel.size(), 0);
      uint32_t next_gid = 0;
      if (stmt.group_by.empty()) {
        // Global aggregate: one group over everything (even when empty).
        next_gid = 1;
      } else {
        const Expr* single =
            stmt.group_by.size() == 1 &&
                    stmt.group_by[0]->kind == ExprKind::kColumnRef &&
                    stmt.group_by[0]->bound_slot >= 0
                ? stmt.group_by[0].get()
                : nullptr;
        const ValueType key_type =
            single != nullptr ? t0.column(single->bound_slot).type()
                              : ValueType::kNull;
        if (single != nullptr && key_type == ValueType::kString) {
          const Column& col = t0.column(single->bound_slot);
          std::span<const std::string> v = col.strings();
          std::unordered_map<std::string_view, uint32_t> gids;
          uint32_t null_gid = UINT32_MAX;
          for (size_t i = 0; i < sel.size(); ++i) {
            const uint32_t r = sel[i];
            uint32_t gid;
            if (col.is_null(r)) {
              if (null_gid == UINT32_MAX) null_gid = next_gid++;
              gid = null_gid;
            } else {
              auto [it, inserted] =
                  gids.try_emplace(std::string_view(v[r]), next_gid);
              if (inserted) ++next_gid;
              gid = it->second;
            }
            row_gid[i] = gid;
          }
        } else if (single != nullptr && key_type == ValueType::kInt64) {
          const Column& col = t0.column(single->bound_slot);
          std::span<const int64_t> v = col.ints();
          std::unordered_map<int64_t, uint32_t> gids;
          uint32_t null_gid = UINT32_MAX;
          for (size_t i = 0; i < sel.size(); ++i) {
            const uint32_t r = sel[i];
            uint32_t gid;
            if (col.is_null(r)) {
              if (null_gid == UINT32_MAX) null_gid = next_gid++;
              gid = null_gid;
            } else {
              auto [it, inserted] = gids.try_emplace(v[r], next_gid);
              if (inserted) ++next_gid;
              gid = it->second;
            }
            row_gid[i] = gid;
          }
        } else {
          // Generic fallback (expressions, composite or double keys): boxed
          // composite keys — bit-for-bit the scalar pipeline's grouping,
          // including int/double cross-type equality and NULL keys.
          std::unordered_map<std::vector<Value>, uint32_t, KeyHash> gids;
          std::vector<Value> key;
          for (size_t i = 0; i < sel.size(); ++i) {
            const uint32_t r = sel[i];
            key.clear();
            for (const ExprPtr& g : stmt.group_by) {
              if (g->kind == ExprKind::kColumnRef && g->bound_slot >= 0) {
                key.push_back(t0.column(g->bound_slot).GetValue(r));
              } else {
                current[0] = r;
                ctx.row = &scan_view;
                GALAXY_ASSIGN_OR_RETURN(Value v, Eval(g.get(), ctx));
                key.push_back(std::move(v));
              }
            }
            auto [it, inserted] = gids.try_emplace(key, next_gid);
            if (inserted) ++next_gid;
            row_gid[i] = it->second;
          }
        }
      }
      const size_t num_groups = next_gid;
      std::vector<std::vector<uint32_t>> group_rows(num_groups);
      {
        std::vector<uint32_t> counts(num_groups, 0);
        for (uint32_t gid : row_gid) ++counts[gid];
        for (size_t g = 0; g < num_groups; ++g) {
          group_rows[g].reserve(counts[g]);
        }
        for (size_t i = 0; i < sel.size(); ++i) {
          group_rows[row_gid[i]].push_back(sel[i]);
        }
      }

      // First row of each group (all-NULL for the synthetic global group):
      // one boxed row per group feeds HAVING and projection; the per-row
      // hot path stays columnar.
      std::vector<Row> first_rows(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        if (group_rows[g].empty()) {
          first_rows[g].assign(total_slots, Value::Null());
        } else {
          // galaxy-lint: allow(row-major-access)
          first_rows[g] = t0.MaterializeRow(group_rows[g][0]);
        }
      }

      // Aggregates: typed folds over column slices where the argument is a
      // plain column; everything else replays the scalar Accumulate.
      std::vector<std::vector<AggState>> agg_states(
          num_groups, std::vector<AggState>(agg_exprs.size()));
      for (size_t a = 0; a < agg_exprs.size(); ++a) {
        const Expr* agg = agg_exprs[a];
        if (agg->star_arg) {
          for (size_t g = 0; g < num_groups; ++g) {
            AggState& st = agg_states[g][a];
            const uint64_t n = group_rows[g].size();
            st.rows += n;
            st.non_null += n;
            st.isum += static_cast<int64_t>(n);
          }
          if (stats != nullptr) stats->vectorized_folds += num_groups;
          continue;
        }
        const Expr* arg = agg->args[0].get();
        if (arg->kind == ExprKind::kColumnRef && arg->bound_slot >= 0) {
          const Column& col = t0.column(arg->bound_slot);
          for (size_t g = 0; g < num_groups; ++g) {
            FoldColumnAgg(col, group_rows[g], &agg_states[g][a]);
          }
          if (stats != nullptr) stats->vectorized_folds += num_groups;
          continue;
        }
        for (size_t g = 0; g < num_groups; ++g) {
          for (uint32_t r : group_rows[g]) {
            current[0] = r;
            ctx.row = &scan_view;
            GALAXY_ASSIGN_OR_RETURN(Value v, Eval(arg, ctx));
            agg_states[g][a].Accumulate(v);
          }
        }
      }

      // SKYLINE OF attributes, gathered into dense per-group buffers before
      // HAVING (scalar order: attribute conversion errors surface for every
      // streamed row, HAVING or not).
      std::vector<std::vector<double>> group_bufs;
      if (!stmt.skyline.empty()) {
        const size_t d = stmt.skyline.size();
        group_bufs.resize(num_groups);
        for (size_t g = 0; g < num_groups; ++g) {
          group_bufs[g].resize(group_rows[g].size() * d);
        }
        // One attribute at a time, straight into the row-major group
        // buffers: a group's rows arrive in selection order, so a per-group
        // cursor finds each row's slot.
        std::vector<size_t> cursor(num_groups);
        for (size_t k = 0; k < d; ++k) {
          std::fill(cursor.begin(), cursor.end(), size_t{0});
          GALAXY_RETURN_IF_ERROR(eval_skyline_dim(
              stmt.skyline[k], [&](size_t i, double x) {
                const uint32_t g = row_gid[i];
                group_bufs[g][cursor[g]++ * d + k] = x;
              }));
        }
        if (stats != nullptr) stats->group_gather_cells += sel.size() * d;
      }

      // Finish aggregates per group.
      std::vector<std::vector<Value>> agg_values(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        agg_values[g].reserve(agg_exprs.size());
        for (size_t a = 0; a < agg_exprs.size(); ++a) {
          GALAXY_ASSIGN_OR_RETURN(
              Value v, agg_states[g][a].Finish(agg_exprs[a]->function,
                                               agg_exprs[a]->star_arg));
          agg_values[g].push_back(std::move(v));
        }
      }

      // HAVING filter.
      std::vector<uint32_t> surviving;
      RowView group_view;
      for (size_t g = 0; g < num_groups; ++g) {
        group_view.values = first_rows[g].data();
        ctx.row = &group_view;
        ctx.aggs = &agg_values[g];
        if (stmt.having != nullptr) {
          GALAXY_ASSIGN_OR_RETURN(Value keep, Eval(stmt.having.get(), ctx));
          if (keep.is_null()) continue;
          GALAXY_ASSIGN_OR_RETURN(bool pass, ValueIsTrue(keep));
          if (!pass) continue;
        }
        surviving.push_back(static_cast<uint32_t>(g));
      }

      // Aggregate skyline over the surviving groups.
      if (!stmt.skyline.empty() && !surviving.empty()) {
        std::vector<std::vector<double>> bufs;
        bufs.reserve(surviving.size());
        for (uint32_t g : surviving) bufs.push_back(std::move(group_bufs[g]));
        GALAXY_ASSIGN_OR_RETURN(
            std::vector<size_t> filtered,
            AggregateSkylineFilter(stmt.skyline.size(), std::move(bufs),
                                   stmt.skyline_rank, stmt.skyline_gamma,
                                   exec_options, stats));
        std::vector<uint32_t> next;
        next.reserve(filtered.size());
        for (size_t id : filtered) next.push_back(surviving[id]);
        surviving = std::move(next);
      }

      for (uint32_t g : surviving) {
        group_view.values = first_rows[g].data();
        ctx.row = &group_view;
        ctx.aggs = &agg_values[g];
        GALAXY_RETURN_IF_ERROR(project(ctx));
      }
      ctx.aggs = nullptr;
    }
  } else {
    // =======================================================================
    // Scalar (tuple-at-a-time) pipeline: multi-table FROMs and the
    // force_scalar reference mode.
    // =======================================================================

    // Per-table candidate row lists (all rows unless a filter was pushed).
    std::vector<std::vector<size_t>> selected(num_tables);
    for (size_t t = 0; t < num_tables; ++t) {
      selected[t].reserve(tables[t]->num_rows());
      for (size_t r = 0; r < tables[t]->num_rows(); ++r) {
        if (exec != nullptr && !exec->Charge(1)) return exec->status();
        if (!pushed[t].empty()) {
          current[t] = r;
          ctx.row = &scan_view;
          bool pass = true;
          for (const ExprPtr& predicate : pushed[t]) {
            GALAXY_ASSIGN_OR_RETURN(Value keep, Eval(predicate.get(), ctx));
            if (keep.is_null()) {
              pass = false;
              break;
            }
            GALAXY_ASSIGN_OR_RETURN(pass, ValueIsTrue(keep));
            if (!pass) break;
          }
          if (!pass) {
            if (stats != nullptr) ++stats->base_rows_filtered;
            continue;
          }
        }
        selected[t].push_back(r);
      }
    }

    // ---- Stream the (filtered) FROM cross product through WHERE. --------
    std::vector<size_t> cursor(num_tables, 0);  // positions into selected[t]

    bool empty_product = false;
    for (size_t t = 0; t < num_tables; ++t) {
      if (selected[t].empty()) empty_product = true;
    }

    // Row consumers fill one of these.
    std::vector<std::vector<Value>> passing_rows;  // non-grouped path
    std::unordered_map<std::vector<Value>, GroupAccum, KeyHash> groups;
    std::vector<const std::vector<Value>*> group_order;  // stable order

    auto consume_row = [&]() -> Status {
      // One work unit per streamed row; trips surface here so the join
      // loops unwind through the usual error path within one row.
      if (exec != nullptr && !exec->Charge(1)) return exec->status();
      ctx.row = &scan_view;
      if (stmt.where != nullptr) {
        GALAXY_ASSIGN_OR_RETURN(Value keep, Eval(stmt.where.get(), ctx));
        if (keep.is_null()) return Status::OK();
        GALAXY_ASSIGN_OR_RETURN(bool pass, ValueIsTrue(keep));
        if (!pass) return Status::OK();
      }
      if (!grouped) {
        std::vector<Value> copy(total_slots);
        for (size_t i = 0; i < total_slots; ++i) {
          copy[i] = scan_view.Get(static_cast<int>(i));
        }
        passing_rows.push_back(std::move(copy));
        return Status::OK();
      }
      // Grouped: evaluate the key and accumulate.
      std::vector<Value> key;
      key.reserve(stmt.group_by.size());
      for (const ExprPtr& g : stmt.group_by) {
        GALAXY_ASSIGN_OR_RETURN(Value v, Eval(g.get(), ctx));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      GroupAccum& accum = it->second;
      if (inserted) {
        group_order.push_back(&it->first);
        accum.first_row.resize(total_slots);
        for (size_t i = 0; i < total_slots; ++i) {
          accum.first_row[i] = scan_view.Get(static_cast<int>(i));
        }
        accum.agg_states.resize(agg_exprs.size());
      }
      for (size_t a = 0; a < agg_exprs.size(); ++a) {
        const Expr* agg = agg_exprs[a];
        if (agg->star_arg) {
          accum.agg_states[a].Accumulate(Value(int64_t{1}));
        } else {
          GALAXY_ASSIGN_OR_RETURN(Value v, Eval(agg->args[0].get(), ctx));
          accum.agg_states[a].Accumulate(v);
        }
      }
      if (!stmt.skyline.empty()) {
        for (size_t k = 0; k < stmt.skyline.size(); ++k) {
          GALAXY_ASSIGN_OR_RETURN(Value v,
                                  Eval(stmt.skyline[k].expr.get(), ctx));
          GALAXY_ASSIGN_OR_RETURN(double d, v.ToDouble());
          accum.skyline_buf.push_back(stmt.skyline[k].maximize ? d : -d);
        }
      }
      return Status::OK();
    };

    if (!empty_product && join_key != nullptr) {
      // Hash equi-join: build on table 1, probe with table 0.
      if (stats != nullptr) ++stats->hash_joins;
      int slot_l = join_key->left->bound_slot;
      int slot_r = join_key->right->bound_slot;
      size_t slot0 = static_cast<size_t>(
          static_cast<size_t>(slot_l) < table_first_slot[1] ? slot_l : slot_r);
      size_t slot1 = static_cast<size_t>(
          static_cast<size_t>(slot_l) < table_first_slot[1] ? slot_r : slot_l);
      size_t col0 = slot0;
      size_t col1 = slot1 - table_first_slot[1];

      std::unordered_map<Value, std::vector<size_t>, ValueHash> build;
      for (size_t r1 : selected[1]) {
        Value key = tables[1]->at(r1, col1);
        if (!key.is_null()) build[std::move(key)].push_back(r1);
      }
      for (size_t r0 : selected[0]) {
        Value key = tables[0]->at(r0, col0);
        if (key.is_null()) continue;
        auto it = build.find(key);
        if (it == build.end()) continue;
        current[0] = r0;
        for (size_t r1 : it->second) {
          current[1] = r1;
          if (stats != nullptr) ++stats->cross_product_rows;
          GALAXY_RETURN_IF_ERROR(consume_row());
        }
      }
    } else if (!empty_product) {
      while (true) {
        // Position each table's cursor at the current combination.
        for (size_t t = 0; t < num_tables; ++t) {
          current[t] = selected[t][cursor[t]];
        }
        if (stats != nullptr) ++stats->cross_product_rows;
        GALAXY_RETURN_IF_ERROR(consume_row());
        // Advance the odometer; stop when the most significant digit wraps.
        bool done = false;
        size_t t = num_tables;
        while (t > 0) {
          --t;
          if (++cursor[t] < selected[t].size()) break;
          cursor[t] = 0;
          if (t == 0) done = true;
        }
        if (done) break;
      }
    }

    // Global aggregate with no GROUP BY: one group over everything (even if
    // the input is empty).
    if (grouped && stmt.group_by.empty() && groups.empty()) {
      auto [it, _] = groups.try_emplace(std::vector<Value>{});
      it->second.agg_states.resize(agg_exprs.size());
      it->second.first_row.assign(total_slots, Value::Null());
      group_order.push_back(&it->first);
    }

    if (!grouped) {
      // Optional record skyline filter (SKYLINE OF without GROUP BY).
      std::vector<size_t> kept(passing_rows.size());
      for (size_t i = 0; i < passing_rows.size(); ++i) kept[i] = i;
      if (!stmt.skyline.empty()) {
        std::vector<std::vector<double>> points;
        points.reserve(passing_rows.size());
        RowView row_view;
        for (const std::vector<Value>& r : passing_rows) {
          row_view.values = r.data();
          ctx.row = &row_view;
          std::vector<double> p(stmt.skyline.size());
          for (size_t k = 0; k < stmt.skyline.size(); ++k) {
            GALAXY_ASSIGN_OR_RETURN(Value v,
                                    Eval(stmt.skyline[k].expr.get(), ctx));
            GALAXY_ASSIGN_OR_RETURN(double d, v.ToDouble());
            p[k] = stmt.skyline[k].maximize ? d : -d;
          }
          points.push_back(std::move(p));
        }
        kept = skyline::Compute(points, skyline::AllMax(stmt.skyline.size()));
      }
      RowView row_view;
      for (size_t idx : kept) {
        row_view.values = passing_rows[idx].data();
        ctx.row = &row_view;
        GALAXY_RETURN_IF_ERROR(project(ctx));
      }
    } else {
      // Finish aggregates per group.
      std::unordered_map<const std::vector<Value>*, std::vector<Value>>
          agg_values;
      for (const std::vector<Value>* key : group_order) {
        GroupAccum& accum = groups.find(*key)->second;
        std::vector<Value> vals;
        vals.reserve(agg_exprs.size());
        for (size_t a = 0; a < agg_exprs.size(); ++a) {
          GALAXY_ASSIGN_OR_RETURN(
              Value v,
              accum.agg_states[a].Finish(agg_exprs[a]->function,
                                         agg_exprs[a]->star_arg));
          vals.push_back(std::move(v));
        }
        agg_values.emplace(key, std::move(vals));
      }

      // HAVING filter.
      std::vector<const std::vector<Value>*> surviving;
      RowView group_view;
      for (const std::vector<Value>* key : group_order) {
        GroupAccum& accum = groups.find(*key)->second;
        group_view.values = accum.first_row.data();
        ctx.row = &group_view;
        ctx.aggs = &agg_values.find(key)->second;
        if (stmt.having != nullptr) {
          GALAXY_ASSIGN_OR_RETURN(Value keep, Eval(stmt.having.get(), ctx));
          if (keep.is_null()) continue;
          GALAXY_ASSIGN_OR_RETURN(bool pass, ValueIsTrue(keep));
          if (!pass) continue;
        }
        surviving.push_back(key);
      }

      // Aggregate skyline over the surviving groups (SKYLINE OF + GROUP
      // BY): Definition 2 applied to the per-group record sets. GAMMA RANK
      // instead emits every group admissible at some γ, ordered by minimal
      // γ (Section 2.2's parameter-free mode).
      if (!stmt.skyline.empty() && !surviving.empty()) {
        std::vector<std::vector<double>> bufs;
        bufs.reserve(surviving.size());
        for (const std::vector<Value>* key : surviving) {
          bufs.push_back(std::move(groups.find(*key)->second.skyline_buf));
        }
        GALAXY_ASSIGN_OR_RETURN(
            std::vector<size_t> filtered,
            AggregateSkylineFilter(stmt.skyline.size(), std::move(bufs),
                                   stmt.skyline_rank, stmt.skyline_gamma,
                                   exec_options, stats));
        std::vector<const std::vector<Value>*> next;
        next.reserve(filtered.size());
        for (size_t id : filtered) next.push_back(surviving[id]);
        surviving = std::move(next);
      }

      for (const std::vector<Value>* key : surviving) {
        GroupAccum& accum = groups.find(*key)->second;
        group_view.values = accum.first_row.data();
        ctx.row = &group_view;
        ctx.aggs = &agg_values.find(key)->second;
        GALAXY_RETURN_IF_ERROR(project(ctx));
      }
      ctx.aggs = nullptr;
    }
  }

  // ---- DISTINCT. ----------------------------------------------------------
  if (stmt.distinct) {
    std::unordered_set<Row, RowHash> seen;
    std::vector<Row> unique_rows;
    std::vector<std::vector<Value>> unique_keys;
    for (size_t i = 0; i < out_rows.size(); ++i) {
      if (seen.insert(out_rows[i]).second) {
        unique_rows.push_back(std::move(out_rows[i]));
        if (need_sort) unique_keys.push_back(std::move(sort_keys[i]));
      }
    }
    out_rows = std::move(unique_rows);
    sort_keys = std::move(unique_keys);
  }

  // ---- ORDER BY / LIMIT. ---------------------------------------------------
  if (need_sort) {
    std::vector<size_t> perm(out_rows.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        const Value& va = sort_keys[a][k];
        const Value& vb = sort_keys[b][k];
        if (va == vb) continue;
        bool less = va < vb;
        return stmt.order_by[k].ascending ? less : !less;
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(out_rows.size());
    for (size_t i : perm) sorted.push_back(std::move(out_rows[i]));
    out_rows = std::move(sorted);
  }
  if (stmt.limit.has_value() && *stmt.limit >= 0 &&
      out_rows.size() > static_cast<size_t>(*stmt.limit)) {
    out_rows.resize(static_cast<size_t>(*stmt.limit));
  }

  // ---- Output schema. -------------------------------------------------------
  std::vector<std::string> names;
  std::vector<ValueType> fallbacks;
  names.reserve(out_columns.size());
  fallbacks.reserve(out_columns.size());
  for (const OutputColumn& col : out_columns) {
    names.push_back(col.name);
    fallbacks.push_back(col.star_slot >= 0
                            ? binder.slots()[col.star_slot].type
                            : ValueType::kInt64);
  }
  return RowsToTable(names, fallbacks, std::move(out_rows));
}

Result<Table> ExecuteSelect(const Database& db, SelectStmt& stmt,
                            ExecStats* stats) {
  return ExecuteSelect(db, stmt, ExecOptions{}, stats);
}

Result<Table> ExecuteSelect(const Database& db, SelectStmt& stmt,
                            const ExecOptions& options, ExecStats* stats) {
  size_t folded = FoldStatement(stmt);  // also folds union members
  if (stats != nullptr) stats->folded_constants += folded;
  GALAXY_ASSIGN_OR_RETURN(Table result,
                          ExecuteSingleSelect(db, stmt, options, stats));
  if (stmt.union_next == nullptr) return result;

  // Left-associative UNION evaluation: combine member by member, applying
  // duplicate elimination at every non-ALL link (standard SQL semantics).
  // UNION links deduplicate whole tuples, which is inherently row-shaped;
  // the boxing here is off the single-member hot path.
  std::vector<Row> rows = result.DebugRows();  // galaxy-lint: allow(row-major-access)
  bool pending_all = stmt.union_all;
  for (SelectStmt* member = stmt.union_next.get(); member != nullptr;
       member = member->union_next.get()) {
    GALAXY_ASSIGN_OR_RETURN(Table next,
                            ExecuteSingleSelect(db, *member, options, stats));
    if (next.num_columns() != result.num_columns()) {
      return Status::InvalidArgument(
          "UNION members must have the same number of columns");
    }
    for (size_t r = 0; r < next.num_rows(); ++r) {
      rows.push_back(next.MaterializeRow(r));  // galaxy-lint: allow(row-major-access)
    }
    if (!pending_all) {
      std::unordered_set<Row, RowHash> seen;
      std::vector<Row> unique_rows;
      unique_rows.reserve(rows.size());
      for (Row& r : rows) {
        if (seen.insert(r).second) unique_rows.push_back(std::move(r));
      }
      rows = std::move(unique_rows);
    }
    pending_all = member->union_all;
  }

  // Column names come from the first member; types are re-inferred over
  // the combined rows (int/double widening via the column builders).
  std::vector<std::string> names;
  std::vector<ValueType> fallbacks;
  names.reserve(result.num_columns());
  fallbacks.reserve(result.num_columns());
  for (size_t c = 0; c < result.num_columns(); ++c) {
    names.push_back(result.schema().column(c).name);
    fallbacks.push_back(result.schema().column(c).type);
  }
  return RowsToTable(names, fallbacks, std::move(rows));
}

}  // namespace galaxy::sql
