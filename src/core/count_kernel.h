#pragma once

// Allocation- and span-free counting kernels for the pairwise-domination
// hot path (the O(|S|·|R|) residual scan inside ClassifyPair). The kernels
// operate on raw row-major `const double*` buffers whose values are
// already MAX-oriented (MIN attributes negated at group construction), so
// a record r dominates s iff r >= s componentwise and r != s.
//
// Two families; ClassifyPair picks one per pair (see KernelPolicy):
//  - tiled:  branch-free two-way counting over a cache-blocked tile of the
//            rest1 x rest2 residual matrix (dimension-specialized for
//            d = 2..8, generic fallback), preserving the incremental stop
//            rule by deciding at tile boundaries;
//  - sorted: both sides ordered by decreasing MonotoneScore; each outer
//            row splits the inner side into a may-dominate-me prefix and a
//            may-be-dominated suffix (records with a strictly larger score
//            can never be dominated), each scanned with a cheaper one-way
//            predicate, with whole-range bulk counts against the prefix
//            min / suffix max corners.
//
// This header is dependency-light on purpose (no gamma.h / group.h): the
// stop-rule orchestration lives in ClassifyPair (core/gamma.cc), which
// calls these primitives between decidability checks.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace galaxy::core {

/// The counting kernel ClassifyPair ran for a residual scan (reported as
/// PairCompareStats::kernel_used). The choice is internal to ClassifyPair:
/// it tiles a charged scan, an exhaustive scan (stop rule off), any scan at
/// d <= kTiledMaxDims and any residual below kSortedMinPairs, and runs the
/// sorted kernel otherwise. Both kernels produce the identical PairOutcome;
/// they differ only in the work performed.
enum class KernelPolicy {
  /// Cache-blocked branch-free tiles with per-tile stop checks.
  kTiled,
  /// Monotone-score ordered scan with one-way tests and bulk corner counts.
  kSorted,
};

const char* KernelPolicyToString(KernelPolicy policy);

namespace kernel {

/// Pair counts accumulated by a kernel invocation.
struct KernelCounts {
  uint64_t n12 = 0;  ///< pairs (r in rows1, s in rows2) with r ≻ s
  uint64_t n21 = 0;  ///< pairs with s ≻ r
};

/// Kernel-choice thresholds (exposed for tests and benches).
/// Largest dimensionality the tiled kernel always takes: CountBlock fills
/// its vector lanes up to d = 4, and there the tiles beat the sorted
/// kernel on the Figure-10, NBA and served workloads (EXPERIMENTS.md).
inline constexpr size_t kTiledMaxDims = 4;
/// Residual-pair count from which the sorted path's O(k log k) setup pays.
inline constexpr uint64_t kSortedMinPairs = 256;
/// Tile edge lengths of the blocked scan (pairs per tile = kTileRows *
/// kTileCols). Sized so one tile's working set stays in L1 for d <= 8.
inline constexpr size_t kTileRows = 32;
inline constexpr size_t kTileCols = 128;
/// Tile edge used when an ExecutionContext is charged: one tile is one
/// charge batch, keeping the documented unwind latency (kChargeBatch work
/// units) intact.
inline constexpr size_t kBoundedTileEdge = 16;

/// Counts both domination directions over the dense block rows1 x rows2
/// (row-major, `dims` doubles per row). Branch-free and specialized for
/// dims 2..8; any other dimensionality takes the generic loop. Equal rows
/// contribute to neither count.
KernelCounts CountBlock(const double* rows1, size_t n1, const double* rows2,
                        size_t n2, size_t dims);

/// Counts rows of `rows` (n rows) that `r` dominates, under the guarantee
/// that no row equals `r` (the sorted path's strict-score ranges): r ≻ s
/// collapses to r >= s componentwise.
uint64_t CountDominatedOneWay(const double* r, const double* rows, size_t n,
                              size_t dims);

/// Counts rows of `rows` that dominate `r`, under the same no-equal-row
/// guarantee: s ≻ r collapses to s >= r componentwise.
uint64_t CountDominatingOneWay(const double* r, const double* rows, size_t n,
                               size_t dims);

/// True iff a >= b on every dimension.
bool GeqAll(const double* a, const double* b, size_t dims);

/// Copies the rows listed in `idx` (indexes into a row-major buffer of
/// `dims`-wide rows) into the packed buffer `out` (resized to n * dims).
void GatherRows(const double* data, const uint32_t* idx, size_t n,
                size_t dims, std::vector<double>* out);

/// All-MAX monotone score of one packed row (sum of coordinates). Kept
/// bit-compatible with skyline::MonotoneScore on MAX-oriented data:
/// left-to-right summation.
double RowScore(const double* row, size_t dims);

/// Fills `order` with 0..n-1 sorted by decreasing RowScore of the packed
/// rows, ties by ascending index (deterministic), and `scores` with the
/// score of each row in the *sorted* order.
void SortByScoreDesc(const double* rows, size_t n, size_t dims,
                     std::vector<uint32_t>* order,
                     std::vector<double>* scores);

/// Componentwise suffix maxima of packed rows: out[i*dims + k] =
/// max(rows[j*dims + k] for j in [i, n)). out is resized to n * dims.
void BuildSuffixMax(const double* rows, size_t n, size_t dims,
                    std::vector<double>* out);

/// Componentwise prefix minima: out[i*dims + k] = min over j in [0, i].
void BuildPrefixMin(const double* rows, size_t n, size_t dims,
                    std::vector<double>* out);

}  // namespace kernel
}  // namespace galaxy::core

