#include "util/simd.h"

#include <atomic>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UST_SIMD_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#define UST_SIMD_HAVE_NEON_KERNELS 1
#include <arm_neon.h>
#endif

// Build-time cap injected by CMake (-DUST_SIMD=...): 0 pins scalar, 2 caps
// at AVX2, 255 means "auto" — no cap beyond what the CPU supports.
#ifndef UST_SIMD_DEFAULT_LEVEL
#define UST_SIMD_DEFAULT_LEVEL 255
#endif

namespace ust {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. Every other level must match these bit-for-bit
// (trivially: the results are integer popcount sums).
// ---------------------------------------------------------------------------

inline int PopCount64(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(v);
#else
  int count = 0;
  while (v != 0) {
    v &= v - 1;
    ++count;
  }
  return count;
#endif
}

uint64_t AndPopcountScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += PopCount64(a[i] & b[i]);
  return sum;
}

uint64_t OrPopcountScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += PopCount64(a[i] | b[i]);
  return sum;
}

uint64_t PopcountScalar(const uint64_t* a, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += PopCount64(a[i]);
  return sum;
}

uint64_t AndRowsScalar(const uint64_t* const* rows, size_t num_rows,
                       size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t acc = rows[0][i];
    for (size_t r = 1; r < num_rows; ++r) acc &= rows[r][i];
    sum += PopCount64(acc);
  }
  return sum;
}

uint64_t OrRowsScalar(const uint64_t* const* rows, size_t num_rows,
                      size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t acc = rows[0][i];
    for (size_t r = 1; r < num_rows; ++r) acc |= rows[r][i];
    sum += PopCount64(acc);
  }
  return sum;
}

void GatherMinScalar(const double* table, const uint32_t* idx, size_t n,
                     double* out, double* mins) {
  for (size_t i = 0; i < n; ++i) {
    const double d = table[idx[i]];
    out[i] = d;
    if (mins != nullptr && d < mins[i]) mins[i] = d;
  }
}

void CompareLeMaskScalar(const double* a, const double* b, size_t n,
                         uint64_t* words) {
  for (size_t w0 = 0; w0 < n; w0 += 64) {
    const size_t m = n - w0 < 64 ? n - w0 : 64;
    uint64_t word = 0;
    for (size_t i = 0; i < m; ++i) {
      word |= static_cast<uint64_t>(a[w0 + i] <= b[w0 + i]) << i;
    }
    words[w0 / 64] = word;
  }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86-64). Compiled with a per-function target attribute so
// the translation unit builds on any x86-64 toolchain; the functions are
// only *called* after __builtin_cpu_supports("avx2") says yes. Popcount is
// the classic vpshufb nibble-lookup + vpsadbw fold (integer-exact).
// ---------------------------------------------------------------------------

#if UST_SIMD_HAVE_AVX2_KERNELS

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  // Four lane-wise uint64 byte-sums; summed across calls by the caller.
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline uint64_t HorizontalSum256(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

__attribute__((target("avx2"))) uint64_t AndPopcountAvx2(const uint64_t* a,
                                                         const uint64_t* b,
                                                         size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
  }
  uint64_t sum = HorizontalSum256(acc);
  for (; i < n; ++i) sum += PopCount64(a[i] & b[i]);
  return sum;
}

__attribute__((target("avx2"))) uint64_t OrPopcountAvx2(const uint64_t* a,
                                                        const uint64_t* b,
                                                        size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_or_si256(va, vb)));
  }
  uint64_t sum = HorizontalSum256(acc);
  for (; i < n; ++i) sum += PopCount64(a[i] | b[i]);
  return sum;
}

__attribute__((target("avx2"))) uint64_t PopcountAvx2(const uint64_t* a,
                                                      size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    acc = _mm256_add_epi64(acc, Popcount256(va));
  }
  uint64_t sum = HorizontalSum256(acc);
  for (; i < n; ++i) sum += PopCount64(a[i]);
  return sum;
}

__attribute__((target("avx2"))) uint64_t AndRowsAvx2(
    const uint64_t* const* rows, size_t num_rows, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[0] + i));
    for (size_t r = 1; r < num_rows; ++r) {
      v = _mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + i)));
    }
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t sum = HorizontalSum256(acc);
  for (; i < n; ++i) {
    uint64_t w = rows[0][i];
    for (size_t r = 1; r < num_rows; ++r) w &= rows[r][i];
    sum += PopCount64(w);
  }
  return sum;
}

__attribute__((target("avx2"))) uint64_t OrRowsAvx2(
    const uint64_t* const* rows, size_t num_rows, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[0] + i));
    for (size_t r = 1; r < num_rows; ++r) {
      v = _mm256_or_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + i)));
    }
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t sum = HorizontalSum256(acc);
  for (; i < n; ++i) {
    uint64_t w = rows[0][i];
    for (size_t r = 1; r < num_rows; ++r) w |= rows[r][i];
    sum += PopCount64(w);
  }
  return sum;
}

// vgatherdpd with an all-lanes mask (the masked form: the unmasked
// intrinsic's undefined source trips -Wmaybe-uninitialized on gcc 12).
__attribute__((target("avx2"))) inline __m256d Gather4(const double* table,
                                                      const uint32_t* idx) {
  const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), table, vi, all, 8);
}

// vgatherdpd + vminpd. min_pd(d, m) returns m unless d < m — exactly the
// scalar `if (d < m) m = d`, so the minima are the same doubles.
__attribute__((target("avx2"))) void GatherMinAvx2(const double* table,
                                                   const uint32_t* idx,
                                                   size_t n, double* out,
                                                   double* mins) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = Gather4(table, idx + i);
    _mm256_storeu_pd(out + i, d);
    if (mins != nullptr) {
      _mm256_storeu_pd(mins + i, _mm256_min_pd(d, _mm256_loadu_pd(mins + i)));
    }
  }
  if (i < n) {
    GatherMinScalar(table, idx + i, n - i, out + i,
                    mins != nullptr ? mins + i : nullptr);
  }
}

// vcmppd (ordered <=, false on NaN like the scalar `<=`) + vmovmskpd: four
// worlds per compare, sixteen compares per word.
__attribute__((target("avx2"))) void CompareLeMaskAvx2(const double* a,
                                                       const double* b,
                                                       size_t n,
                                                       uint64_t* words) {
  size_t w0 = 0;
  for (; w0 + 64 <= n; w0 += 64) {
    uint64_t word = 0;
    for (size_t i = 0; i < 64; i += 4) {
      const __m256d le = _mm256_cmp_pd(_mm256_loadu_pd(a + w0 + i),
                                       _mm256_loadu_pd(b + w0 + i), _CMP_LE_OQ);
      word |= static_cast<uint64_t>(_mm256_movemask_pd(le)) << i;
    }
    words[w0 / 64] = word;
  }
  if (w0 < n) CompareLeMaskScalar(a + w0, b + w0, n - w0, words + w0 / 64);
}

#endif  // UST_SIMD_HAVE_AVX2_KERNELS

// ---------------------------------------------------------------------------
// NEON kernels (aarch64 baseline — no runtime feature check needed).
// ---------------------------------------------------------------------------

#if UST_SIMD_HAVE_NEON_KERNELS

inline uint64_t PopcountNeon128(uint64x2_t v) {
  const uint8x16_t counts = vcntq_u8(vreinterpretq_u8_u64(v));
  return vaddvq_u8(counts);
}

uint64_t AndPopcountNeon(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    sum += PopcountNeon128(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) sum += PopCount64(a[i] & b[i]);
  return sum;
}

uint64_t OrPopcountNeon(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    sum += PopcountNeon128(vorrq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) sum += PopCount64(a[i] | b[i]);
  return sum;
}

uint64_t PopcountNeon(const uint64_t* a, size_t n) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) sum += PopcountNeon128(vld1q_u64(a + i));
  for (; i < n; ++i) sum += PopCount64(a[i]);
  return sum;
}

uint64_t AndRowsNeon(const uint64_t* const* rows, size_t num_rows, size_t n) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t v = vld1q_u64(rows[0] + i);
    for (size_t r = 1; r < num_rows; ++r) {
      v = vandq_u64(v, vld1q_u64(rows[r] + i));
    }
    sum += PopcountNeon128(v);
  }
  for (; i < n; ++i) {
    uint64_t w = rows[0][i];
    for (size_t r = 1; r < num_rows; ++r) w &= rows[r][i];
    sum += PopCount64(w);
  }
  return sum;
}

uint64_t OrRowsNeon(const uint64_t* const* rows, size_t num_rows, size_t n) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t v = vld1q_u64(rows[0] + i);
    for (size_t r = 1; r < num_rows; ++r) {
      v = vorrq_u64(v, vld1q_u64(rows[r] + i));
    }
    sum += PopcountNeon128(v);
  }
  for (; i < n; ++i) {
    uint64_t w = rows[0][i];
    for (size_t r = 1; r < num_rows; ++r) w |= rows[r][i];
    sum += PopCount64(w);
  }
  return sum;
}

#endif  // UST_SIMD_HAVE_NEON_KERNELS

// ---------------------------------------------------------------------------
// Dispatch table.
// ---------------------------------------------------------------------------

struct KernelTable {
  uint64_t (*and_popcount)(const uint64_t*, const uint64_t*, size_t);
  uint64_t (*or_popcount)(const uint64_t*, const uint64_t*, size_t);
  uint64_t (*popcount)(const uint64_t*, size_t);
  uint64_t (*and_rows)(const uint64_t* const*, size_t, size_t);
  uint64_t (*or_rows)(const uint64_t* const*, size_t, size_t);
  void (*gather_min)(const double*, const uint32_t*, size_t, double*,
                     double*);
  void (*compare_le_mask)(const double*, const double*, size_t, uint64_t*);
  SimdLevel level;
};

constexpr KernelTable kScalarTable = {
    AndPopcountScalar, OrPopcountScalar,    PopcountScalar,
    AndRowsScalar,     OrRowsScalar,        GatherMinScalar,
    CompareLeMaskScalar, SimdLevel::kScalar};

#if UST_SIMD_HAVE_AVX2_KERNELS
constexpr KernelTable kAvx2Table = {
    AndPopcountAvx2, OrPopcountAvx2,    PopcountAvx2,
    AndRowsAvx2,     OrRowsAvx2,        GatherMinAvx2,
    CompareLeMaskAvx2, SimdLevel::kAvx2};
#endif
#if UST_SIMD_HAVE_NEON_KERNELS
// NEON has no gather; the distance kernels run the scalar reference there.
constexpr KernelTable kNeonTable = {
    AndPopcountNeon, OrPopcountNeon,    PopcountNeon,
    AndRowsNeon,     OrRowsNeon,        GatherMinScalar,
    CompareLeMaskScalar, SimdLevel::kNeon};
#endif

const KernelTable* TableFor(SimdLevel level) {
  switch (level) {
#if UST_SIMD_HAVE_AVX2_KERNELS
    case SimdLevel::kAvx2:
      return &kAvx2Table;
#endif
#if UST_SIMD_HAVE_NEON_KERNELS
    case SimdLevel::kNeon:
      return &kNeonTable;
#endif
    default:
      return &kScalarTable;
  }
}

std::atomic<const KernelTable*>& ActiveTable() {
  static std::atomic<const KernelTable*> table{[] {
    SimdLevel level = DetectSimdLevel();
    const auto cap = static_cast<int>(UST_SIMD_DEFAULT_LEVEL);
    if (cap != 255 && static_cast<int>(level) > cap) {
      level = static_cast<SimdLevel>(cap);
    }
    return TableFor(level);
  }()};
  return table;
}

}  // namespace

SimdLevel DetectSimdLevel() {
#if UST_SIMD_HAVE_AVX2_KERNELS
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
#if UST_SIMD_HAVE_NEON_KERNELS
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveSimdLevel() {
  return ActiveTable().load(std::memory_order_acquire)->level;
}

bool ForceSimdLevel(SimdLevel level) {
  if (level != SimdLevel::kScalar && level != DetectSimdLevel()) return false;
  const KernelTable* table = TableFor(level);
  if (table->level != level) return false;  // kernels not compiled in
  ActiveTable().store(table, std::memory_order_release);
  return true;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

uint64_t AndPopcountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  return ActiveTable().load(std::memory_order_acquire)->and_popcount(a, b, n);
}

uint64_t OrPopcountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  return ActiveTable().load(std::memory_order_acquire)->or_popcount(a, b, n);
}

uint64_t PopcountWords(const uint64_t* a, size_t n) {
  return ActiveTable().load(std::memory_order_acquire)->popcount(a, n);
}

uint64_t AndRowsPopcount(const uint64_t* const* rows, size_t num_rows,
                         size_t n) {
  if (num_rows == 0) return 64u * static_cast<uint64_t>(n);
  return ActiveTable().load(std::memory_order_acquire)
      ->and_rows(rows, num_rows, n);
}

uint64_t OrRowsPopcount(const uint64_t* const* rows, size_t num_rows,
                        size_t n) {
  if (num_rows == 0) return 0;
  return ActiveTable().load(std::memory_order_acquire)
      ->or_rows(rows, num_rows, n);
}

void GatherMinDistances(const double* table, const uint32_t* idx, size_t n,
                        double* out, double* mins) {
  ActiveTable().load(std::memory_order_acquire)
      ->gather_min(table, idx, n, out, mins);
}

void CompareLeMask(const double* a, const double* b, size_t n,
                   uint64_t* words) {
  ActiveTable().load(std::memory_order_acquire)
      ->compare_le_mask(a, b, n, words);
}

}  // namespace ust
