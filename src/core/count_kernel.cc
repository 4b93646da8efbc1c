#include "core/count_kernel.h"

// galaxy-lint: allow-file(budget-charge) — kernels here are the
// innermost tiles and deliberately branch-free; the budget is charged
// per tile by the callers (gamma.cc ChargeState and the algorithm
// drivers), not per pair inside the tile.

#include <algorithm>

namespace galaxy::core::kernel {

// Runtime SIMD dispatch: GCC/Clang on x86-64 Linux resolve the best clone
// through an ifunc at load time, so portable builds still pick up AVX2 on
// capable hosts. Elsewhere the attribute compiles away to nothing.
// ThreadSanitizer cannot run instrumented ifunc resolvers (they execute
// during relocation, before the TSan runtime initializes — instant
// segfault on GCC), so TSan builds use the plain default-ISA functions.
#if defined(__SANITIZE_THREAD__)
#define GALAXY_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GALAXY_TSAN 1
#endif
#endif

#if defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(GALAXY_TSAN)
#define GALAXY_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2")))
#else
#define GALAXY_KERNEL_CLONES
#endif

#if defined(__GNUC__) || defined(__clang__)
#define GALAXY_FORCE_INLINE [[gnu::always_inline]] inline
#else
#define GALAXY_FORCE_INLINE inline
#endif

namespace {

// Two-way branch-free pair test over one column-major chunk: row a's
// coordinates are broadcast against cols[k][j], so the j-loop reads each
// column contiguously and vectorizes at every D. No early exit: the
// straight-line body beats a branchy short-circuit loop even though it
// always touches all d attributes.
template <int D>
GALAXY_FORCE_INLINE void CountBlockFixed(const double* rows1, size_t n1,
                                         const double* rows2, size_t n2,
                                         uint64_t* n12, uint64_t* n21) {
  alignas(64) double cols[D][kChunkRows];
  uint64_t c12 = 0;
  uint64_t c21 = 0;
  for (size_t j0 = 0; j0 < n2; j0 += kChunkRows) {
    const size_t nj = std::min(kChunkRows, n2 - j0);
    const double* chunk = rows2 + j0 * D;
    for (size_t j = 0; j < nj; ++j) {
      for (int k = 0; k < D; ++k) cols[k][j] = chunk[j * D + k];
    }
    for (size_t i = 0; i < n1; ++i) {
      double a[D];
      for (int k = 0; k < D; ++k) a[k] = rows1[i * D + k];
      for (size_t j = 0; j < nj; ++j) {
        bool a_gt = false;
        bool b_gt = false;
        for (int k = 0; k < D; ++k) {
          a_gt |= a[k] > cols[k][j];
          b_gt |= cols[k][j] > a[k];
        }
        c12 += static_cast<uint64_t>(a_gt & !b_gt);
        c21 += static_cast<uint64_t>(b_gt & !a_gt);
      }
    }
  }
  *n12 += c12;
  *n21 += c21;
}

// The same chunked layout for any other dimensionality, with a runtime
// stride: the chunk shrinks as dims grows so the stack buffer stays at
// 8 x kChunkRows doubles. A row wider than the buffer is its own one-row
// chunk, whose column-major copy is the row itself, so it is read in
// place.
GALAXY_FORCE_INLINE void CountBlockGeneric(const double* rows1, size_t n1,
                                           const double* rows2, size_t n2,
                                           size_t dims, uint64_t* n12,
                                           uint64_t* n21) {
  constexpr size_t kBufferDoubles = 8 * kChunkRows;
  alignas(64) double cols[kBufferDoubles];
  const size_t stride =
      std::clamp<size_t>(kBufferDoubles / dims, 1, kChunkRows);
  uint64_t c12 = 0;
  uint64_t c21 = 0;
  for (size_t j0 = 0; j0 < n2; j0 += stride) {
    const size_t nj = std::min(stride, n2 - j0);
    const double* chunk = rows2 + j0 * dims;
    const double* c = chunk;
    if (dims <= kBufferDoubles) {
      for (size_t j = 0; j < nj; ++j) {
        for (size_t k = 0; k < dims; ++k) {
          cols[k * stride + j] = chunk[j * dims + k];
        }
      }
      c = cols;
    }
    for (size_t i = 0; i < n1; ++i) {
      const double* a = rows1 + i * dims;
      for (size_t j = 0; j < nj; ++j) {
        bool a_gt = false;
        bool b_gt = false;
        for (size_t k = 0; k < dims; ++k) {
          a_gt |= a[k] > c[k * stride + j];
          b_gt |= c[k * stride + j] > a[k];
        }
        c12 += static_cast<uint64_t>(a_gt & !b_gt);
        c21 += static_cast<uint64_t>(b_gt & !a_gt);
      }
    }
  }
  *n12 += c12;
  *n21 += c21;
}

// One concrete, clonable function per specialized dimension (target_clones
// does not apply to templates; the fixed-D body inlines into each clone).
#define GALAXY_DEFINE_BLOCK_KERNEL(D)                                       \
  GALAXY_KERNEL_CLONES void CountBlock##D(const double* r1, size_t n1,      \
                                          const double* r2, size_t n2,      \
                                          uint64_t* n12, uint64_t* n21) {   \
    CountBlockFixed<D>(r1, n1, r2, n2, n12, n21);                           \
  }
GALAXY_DEFINE_BLOCK_KERNEL(2)
GALAXY_DEFINE_BLOCK_KERNEL(3)
GALAXY_DEFINE_BLOCK_KERNEL(4)
GALAXY_DEFINE_BLOCK_KERNEL(5)
GALAXY_DEFINE_BLOCK_KERNEL(6)
GALAXY_DEFINE_BLOCK_KERNEL(7)
GALAXY_DEFINE_BLOCK_KERNEL(8)
#undef GALAXY_DEFINE_BLOCK_KERNEL

GALAXY_KERNEL_CLONES void CountBlockAnyDim(const double* r1, size_t n1,
                                           const double* r2, size_t n2,
                                           size_t dims, uint64_t* n12,
                                           uint64_t* n21) {
  CountBlockGeneric(r1, n1, r2, n2, dims, n12, n21);
}

}  // namespace

KernelCounts CountBlock(const double* rows1, size_t n1, const double* rows2,
                        size_t n2, size_t dims) {
  KernelCounts c;
  if (n1 == 0 || n2 == 0) return c;
  switch (dims) {
    case 2:
      CountBlock2(rows1, n1, rows2, n2, &c.n12, &c.n21);
      break;
    case 3:
      CountBlock3(rows1, n1, rows2, n2, &c.n12, &c.n21);
      break;
    case 4:
      CountBlock4(rows1, n1, rows2, n2, &c.n12, &c.n21);
      break;
    case 5:
      CountBlock5(rows1, n1, rows2, n2, &c.n12, &c.n21);
      break;
    case 6:
      CountBlock6(rows1, n1, rows2, n2, &c.n12, &c.n21);
      break;
    case 7:
      CountBlock7(rows1, n1, rows2, n2, &c.n12, &c.n21);
      break;
    case 8:
      CountBlock8(rows1, n1, rows2, n2, &c.n12, &c.n21);
      break;
    default:
      CountBlockAnyDim(rows1, n1, rows2, n2, dims, &c.n12, &c.n21);
      break;
  }
  return c;
}

void GatherRows(const double* data, const uint32_t* idx, size_t n,
                size_t dims, std::vector<double>* out) {
  out->resize(n * dims);
  double* dst = out->data();
  for (size_t i = 0; i < n; ++i) {
    const double* src = data + static_cast<size_t>(idx[i]) * dims;
    for (size_t k = 0; k < dims; ++k) dst[k] = src[k];
    dst += dims;
  }
}

}  // namespace galaxy::core::kernel
