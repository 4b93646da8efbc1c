#pragma once

#include "common/status.h"
#include "core/exec_context.h"
#include "core/options.h"
#include "relation/table.h"
#include "sql/ast.h"
#include "sql/catalog.h"

namespace galaxy::sql {

/// Per-query execution controls, threaded from the caller down to the
/// operators (see core/exec_context.h for the control-plane semantics).
struct ExecOptions {
  /// Optional control plane: rows streamed through the executor and record
  /// comparisons inside the skyline operators are charged to it; once it
  /// stops, the query returns its trip Status (kCancelled /
  /// kDeadlineExceeded / kResourceExhausted). Null = unbounded.
  core::ExecutionContext* exec = nullptr;
  /// When the control plane trips inside an aggregate-skyline step
  /// (SKYLINE OF ... GROUP BY) for a degradable reason, return the sound
  /// over-approximation instead of an error: the interrupted run's marks
  /// plus one MBB corner pass (core/aggregate_skyline.h), so the answer
  /// costs no more than the trip allowed. ExecStats::skyline_quality then
  /// reports kApproximateSuperset. Trips outside that step still error:
  /// a half-streamed WHERE has no sound partial answer.
  bool allow_approximate = false;
  /// Forces tuple-at-a-time evaluation, disabling the single-table batch
  /// paths (selection-vector predicates, typed aggregate folds, columnar
  /// projection gather). The scalar pipeline is the behavioral reference
  /// the batch engine is differentially tested against; results must be
  /// identical either way.
  bool force_scalar = false;
};

/// Optimizer/executor counters (for tests and tuning).
struct ExecStats {
  /// WHERE conjuncts pushed below the cross product (multi-table FROM).
  uint64_t pushed_filters = 0;
  /// Base-table rows removed by pushed filters before the join.
  uint64_t base_rows_filtered = 0;
  /// Row combinations actually enumerated by the cross product.
  uint64_t cross_product_rows = 0;
  /// Constant-folding rewrites applied.
  uint64_t folded_constants = 0;
  /// Two-table FROMs executed as a hash equi-join instead of a cross
  /// product (an A.x = B.y conjunct became the join key).
  uint64_t hash_joins = 0;
  /// WHERE conjuncts executed as vectorized selection kernels over column
  /// slices (single-table scans only).
  uint64_t vectorized_predicates = 0;
  /// Aggregate accumulations folded over typed column arrays instead of
  /// per-row boxed evaluation (one count per aggregate per group batch).
  uint64_t vectorized_folds = 0;
  /// Projections materialized by columnar gather, bypassing per-row
  /// expression evaluation and output re-inference.
  uint64_t columnar_projections = 0;
  /// Double cells gathered into dense per-group skyline buffers (the
  /// executor -> core::Group handoff is a single copy per cell).
  uint64_t group_gather_cells = 0;
  /// Quality of the aggregate-skyline step, if the query had one:
  /// kApproximateSuperset after a graceful degradation (see ExecOptions).
  core::ResultQuality skyline_quality = core::ResultQuality::kExact;
  /// Work counters of the aggregate-skyline step, if the query had one
  /// (all zero otherwise). The serving layer aggregates these into its
  /// metrics registry.
  core::AggregateSkylineStats skyline_stats;
};

/// Executes a bound-and-parsed SELECT statement against the database.
/// Pipeline: constant folding -> FROM (cross product of base tables, with
/// single-table WHERE conjuncts pushed below the join) -> WHERE -> GROUP
/// BY / aggregates -> HAVING -> SKYLINE OF (record or aggregate skyline)
/// -> projection (+DISTINCT) -> ORDER BY -> LIMIT -> UNION combination.
/// Subqueries must be uncorrelated (they are evaluated once and
/// materialized).
///
/// The statement is mutated by binding (column slots / aggregate slots), so
/// a SelectStmt may be executed only once; parse again to re-run.
Result<Table> ExecuteSelect(const Database& db, SelectStmt& stmt,
                            ExecStats* stats = nullptr);

/// Like ExecuteSelect, with per-query execution controls (deadline,
/// cancellation, budgets, graceful degradation).
Result<Table> ExecuteSelect(const Database& db, SelectStmt& stmt,
                            const ExecOptions& options, ExecStats* stats);

}  // namespace galaxy::sql

