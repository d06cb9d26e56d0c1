// Runtime-dispatched vector kernels for the Monte-Carlo world evaluation:
// the distance gather + per-tic minimum fold and the compare-to-word marking
// that fill NnTable bitmaps, and the word-packed world-set reductions
// (NnTable / Pcnn) that read them. The reductions are pure popcount folds
// over uint64 words; the distance kernels copy, min and compare doubles
// without arithmetic. Every implementation therefore returns the exact same
// integers, doubles and words — dispatch is a performance decision, never a
// numerical one.
//
// Dispatch policy (DESIGN.md section 7.3): the best level supported by the
// running CPU is detected once, on first use, and cached in a function-table
// singleton. A build-time default can narrow the choice (-DUST_SIMD=scalar
// pins the reference path, e.g. for sanitizer jobs), and tests may force a
// level explicitly via ForceSimdLevel to cover the vector paths on machines
// where autodetection would pick scalar.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ust {

enum class SimdLevel {
  kScalar = 0,  // portable reference; always available
  kNeon = 1,    // aarch64 baseline (128-bit)
  kAvx2 = 2,    // x86-64 with AVX2 (256-bit)
};

/// Best level the running CPU supports (ignores the build-time default).
SimdLevel DetectSimdLevel();

/// Level the dispatched kernels currently run at. Resolved on first call:
/// min(DetectSimdLevel(), build-time UST_SIMD default), then cached.
SimdLevel ActiveSimdLevel();

/// Test hook: re-point the kernel table at `level`. Returns false (and
/// leaves the table unchanged) when the CPU does not support `level`.
/// Not thread-safe against concurrent kernel calls — call from test setup.
bool ForceSimdLevel(SimdLevel level);

const char* SimdLevelName(SimdLevel level);

/// sum over i of popcount(a[i] & b[i]) — the P(forall)-style reduction.
uint64_t AndPopcountWords(const uint64_t* a, const uint64_t* b, size_t n);

/// sum over i of popcount(a[i] | b[i]) — the P(exists)-style reduction.
uint64_t OrPopcountWords(const uint64_t* a, const uint64_t* b, size_t n);

/// sum over i of popcount(a[i]).
uint64_t PopcountWords(const uint64_t* a, size_t n);

/// Multi-row AND fold: acc[i] over rows, then popcount. `rows` holds
/// `num_rows` pointers, each to `n` words; equivalent to popcounting
/// rows[0][i] & rows[1][i] & ... per word. num_rows == 0 returns 64 * n
/// (the empty AND is all-ones over whole words) — callers mask partial
/// trailing words before packing, per NnTable's contract.
uint64_t AndRowsPopcount(const uint64_t* const* rows, size_t num_rows,
                         size_t n);

/// Multi-row OR fold, popcounted. num_rows == 0 returns 0.
uint64_t OrRowsPopcount(const uint64_t* const* rows, size_t num_rows,
                        size_t n);

/// out[i] = table[idx[i]] for i < n (the distance gather of one
/// (participant, tic) row of worlds). When `mins` is non-null, also folds
/// mins[i] = (out[i] < mins[i]) ? out[i] : mins[i] — the per-tic minimum.
void GatherMinDistances(const double* table, const uint32_t* idx, size_t n,
                        double* out, double* mins);

/// Packs the predicate a[i] <= b[i], i < n, into ceil(n / 64) words: i maps
/// to bit i % 64 of words[i / 64]; bits at or past n in the last word are 0.
void CompareLeMask(const double* a, const double* b, size_t n,
                   uint64_t* words);

}  // namespace ust
