#pragma once

// Allocation- and span-free counting kernel for the pairwise-domination
// hot path (the O(|S|·|R|) residual scan inside ClassifyPair). The kernel
// reads raw row-major `const double*` buffers whose values are already
// MAX-oriented (MIN attributes negated at group construction), so a
// record r dominates s iff r >= s componentwise and r != s.
//
// CountBlock transposes each chunk of at most kChunkRows rows of the
// right-hand block into a column-major stack buffer, then runs a
// branch-free two-way test of every left-hand row (its coordinates
// broadcast) against the chunk's contiguous columns, so the compiler
// fills vector lanes at every dimensionality. ClassifyPair (core/gamma.cc)
// calls it tile by tile over the rest1 x rest2 residual matrix and
// applies the incremental stop rule at tile boundaries.
//
// This header is dependency-light on purpose (no gamma.h / group.h).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace galaxy::core::kernel {

/// Pair counts accumulated by a kernel invocation.
struct KernelCounts {
  uint64_t n12 = 0;  ///< pairs (r in rows1, s in rows2) with r ≻ s
  uint64_t n21 = 0;  ///< pairs with s ≻ r
};

/// Rows of the right-hand block transposed per chunk: the column-major
/// stack buffer holds 8 columns of kChunkRows doubles (8 KiB). Above 8
/// dimensions the chunk shrinks so the buffer keeps that size.
inline constexpr size_t kChunkRows = 128;
/// Tile edge lengths of the blocked scan (pairs per tile = kTileRows *
/// kTileCols). One tile column is one transposed chunk.
inline constexpr size_t kTileRows = 32;
inline constexpr size_t kTileCols = kChunkRows;
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

/// Copies the rows listed in `idx` (indexes into a row-major buffer of
/// `dims`-wide rows) into the packed buffer `out` (resized to n * dims).
void GatherRows(const double* data, const uint32_t* idx, size_t n,
                size_t dims, std::vector<double>* out);

}  // namespace galaxy::core::kernel
