#include "core/count_kernel.h"

// galaxy-lint: allow-file(budget-charge) — kernels here are the
// innermost tiles and deliberately branch-free; the budget is charged
// per tile by the callers (gamma.cc ChargeState and the algorithm
// drivers), not per pair inside the tile.

#include <algorithm>
#include <numeric>

namespace galaxy::core {

const char* KernelPolicyToString(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::kTiled:
      return "tiled";
    case KernelPolicy::kSorted:
      return "sorted";
  }
  return "?";
}

namespace kernel {

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

// Two-way branch-free pair test, unrolled for a compile-time dimension.
// No early exit: the straight-line body lets the compiler vectorize the
// inner j-loop, which beats the branchy short-circuit loop even though it
// always touches all d attributes.
template <int D>
GALAXY_FORCE_INLINE void CountBlockFixed(const double* rows1, size_t n1,
                                         const double* rows2, size_t n2,
                                         uint64_t* n12, uint64_t* n21) {
  uint64_t c12 = 0;
  uint64_t c21 = 0;
  for (size_t i = 0; i < n1; ++i) {
    const double* a = rows1 + i * D;
    for (size_t j = 0; j < n2; ++j) {
      const double* b = rows2 + j * D;
      bool a_gt = false;
      bool b_gt = false;
      for (int k = 0; k < D; ++k) {
        a_gt |= a[k] > b[k];
        b_gt |= b[k] > a[k];
      }
      c12 += static_cast<uint64_t>(a_gt & !b_gt);
      c21 += static_cast<uint64_t>(b_gt & !a_gt);
    }
  }
  *n12 += c12;
  *n21 += c21;
}

GALAXY_FORCE_INLINE void CountBlockGeneric(const double* rows1, size_t n1,
                                           const double* rows2, size_t n2,
                                           size_t dims, uint64_t* n12,
                                           uint64_t* n21) {
  uint64_t c12 = 0;
  uint64_t c21 = 0;
  for (size_t i = 0; i < n1; ++i) {
    const double* a = rows1 + i * dims;
    for (size_t j = 0; j < n2; ++j) {
      const double* b = rows2 + j * dims;
      bool a_gt = false;
      bool b_gt = false;
      for (size_t k = 0; k < dims; ++k) {
        a_gt |= a[k] > b[k];
        b_gt |= b[k] > a[k];
      }
      c12 += static_cast<uint64_t>(a_gt & !b_gt);
      c21 += static_cast<uint64_t>(b_gt & !a_gt);
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

// One-way counting under the sorted path's strict-score guarantee: no row
// equals r, so dominance collapses to componentwise >=.
template <int D>
GALAXY_FORCE_INLINE uint64_t CountGeqFixed(const double* r,
                                           const double* rows, size_t n,
                                           bool r_on_left) {
  uint64_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    const double* b = rows + j * D;
    bool geq = true;
    for (int k = 0; k < D; ++k) {
      geq &= r_on_left ? r[k] >= b[k] : b[k] >= r[k];
    }
    count += static_cast<uint64_t>(geq);
  }
  return count;
}

GALAXY_FORCE_INLINE uint64_t CountGeqGeneric(const double* r,
                                             const double* rows, size_t n,
                                             size_t dims, bool r_on_left) {
  uint64_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    const double* b = rows + j * dims;
    bool geq = true;
    for (size_t k = 0; k < dims; ++k) {
      geq &= r_on_left ? r[k] >= b[k] : b[k] >= r[k];
    }
    count += static_cast<uint64_t>(geq);
  }
  return count;
}

#define GALAXY_DEFINE_GEQ_KERNEL(D)                                         \
  GALAXY_KERNEL_CLONES uint64_t CountGeqLeft##D(                            \
      const double* r, const double* rows, size_t n) {                      \
    return CountGeqFixed<D>(r, rows, n, true);                              \
  }                                                                         \
  GALAXY_KERNEL_CLONES uint64_t CountGeqRight##D(                           \
      const double* r, const double* rows, size_t n) {                      \
    return CountGeqFixed<D>(r, rows, n, false);                             \
  }
GALAXY_DEFINE_GEQ_KERNEL(2)
GALAXY_DEFINE_GEQ_KERNEL(3)
GALAXY_DEFINE_GEQ_KERNEL(4)
GALAXY_DEFINE_GEQ_KERNEL(5)
GALAXY_DEFINE_GEQ_KERNEL(6)
GALAXY_DEFINE_GEQ_KERNEL(7)
GALAXY_DEFINE_GEQ_KERNEL(8)
#undef GALAXY_DEFINE_GEQ_KERNEL

GALAXY_KERNEL_CLONES uint64_t CountGeqAnyDim(const double* r,
                                             const double* rows, size_t n,
                                             size_t dims, bool r_on_left) {
  return CountGeqGeneric(r, rows, n, dims, r_on_left);
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

uint64_t CountDominatedOneWay(const double* r, const double* rows, size_t n,
                              size_t dims) {
  if (n == 0) return 0;
  switch (dims) {
    case 2:
      return CountGeqLeft2(r, rows, n);
    case 3:
      return CountGeqLeft3(r, rows, n);
    case 4:
      return CountGeqLeft4(r, rows, n);
    case 5:
      return CountGeqLeft5(r, rows, n);
    case 6:
      return CountGeqLeft6(r, rows, n);
    case 7:
      return CountGeqLeft7(r, rows, n);
    case 8:
      return CountGeqLeft8(r, rows, n);
    default:
      return CountGeqAnyDim(r, rows, n, dims, true);
  }
}

uint64_t CountDominatingOneWay(const double* r, const double* rows, size_t n,
                               size_t dims) {
  if (n == 0) return 0;
  switch (dims) {
    case 2:
      return CountGeqRight2(r, rows, n);
    case 3:
      return CountGeqRight3(r, rows, n);
    case 4:
      return CountGeqRight4(r, rows, n);
    case 5:
      return CountGeqRight5(r, rows, n);
    case 6:
      return CountGeqRight6(r, rows, n);
    case 7:
      return CountGeqRight7(r, rows, n);
    case 8:
      return CountGeqRight8(r, rows, n);
    default:
      return CountGeqAnyDim(r, rows, n, dims, false);
  }
}

bool GeqAll(const double* a, const double* b, size_t dims) {
  for (size_t k = 0; k < dims; ++k) {
    if (a[k] < b[k]) return false;
  }
  return true;
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

double RowScore(const double* row, size_t dims) {
  double s = 0.0;
  for (size_t k = 0; k < dims; ++k) s += row[k];
  return s;
}

void SortByScoreDesc(const double* rows, size_t n, size_t dims,
                     std::vector<uint32_t>* order,
                     std::vector<double>* scores) {
  order->resize(n);
  std::iota(order->begin(), order->end(), uint32_t{0});
  std::vector<double> raw(n);
  for (size_t i = 0; i < n; ++i) raw[i] = RowScore(rows + i * dims, dims);
  std::sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
    if (raw[a] != raw[b]) return raw[a] > raw[b];
    return a < b;
  });
  scores->resize(n);
  for (size_t i = 0; i < n; ++i) (*scores)[i] = raw[(*order)[i]];
}

void BuildSuffixMax(const double* rows, size_t n, size_t dims,
                    std::vector<double>* out) {
  out->resize(n * dims);
  if (n == 0) return;
  double* o = out->data();
  for (size_t k = 0; k < dims; ++k) {
    o[(n - 1) * dims + k] = rows[(n - 1) * dims + k];
  }
  for (size_t i = n - 1; i-- > 0;) {
    for (size_t k = 0; k < dims; ++k) {
      o[i * dims + k] =
          std::max(rows[i * dims + k], o[(i + 1) * dims + k]);
    }
  }
}

void BuildPrefixMin(const double* rows, size_t n, size_t dims,
                    std::vector<double>* out) {
  out->resize(n * dims);
  if (n == 0) return;
  double* o = out->data();
  for (size_t k = 0; k < dims; ++k) o[k] = rows[k];
  for (size_t i = 1; i < n; ++i) {
    for (size_t k = 0; k < dims; ++k) {
      o[i * dims + k] =
          std::min(rows[i * dims + k], o[(i - 1) * dims + k]);
    }
  }
}

}  // namespace kernel
}  // namespace galaxy::core
