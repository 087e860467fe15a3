#ifndef S4_COMMON_SIMD_H_
#define S4_COMMON_SIMD_H_

// Compile-time-dispatched 16-lane byte comparison, the primitive behind
// the tag-filtered probe walks of the flat hash map in
// src/cache/flat_table.h. Exactly one backend is selected when this
// header is compiled:
//
//   - SSE2 on x86-64 (baseline for every 64-bit x86, no -m flags needed)
//   - NEON on AArch64
//   - a portable scalar loop everywhere else, or anywhere when the build
//     defines S4_DISABLE_SIMD (the CMake option of the same name). The
//     scalar path is the semantic reference: all backends return
//     identical masks for identical inputs, so switching backends can
//     never change a lookup result.
//
// The shim deliberately exposes only what those probe walks need:
// one 16-byte equality test returning a 16-bit lane mask, plus ffs-style
// mask iteration helpers.

#include <cstdint>

#if !defined(S4_DISABLE_SIMD) && (defined(__SSE2__) || defined(__x86_64__))
#define S4_SIMD_SSE2 1
#include <emmintrin.h>
#elif !defined(S4_DISABLE_SIMD) && defined(__aarch64__) && defined(__ARM_NEON)
#define S4_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace s4::simd {

// Lanes compared per call; the flat hash map sizes its probe groups to
// match.
inline constexpr int kGroupWidth = 16;

// Name of the backend compiled in (surfaced by benches and tests so a
// run records which path it measured).
inline const char* BackendName() {
#if defined(S4_SIMD_SSE2)
  return "sse2";
#elif defined(S4_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// Bit i (i in [0, 16)) of the result is set iff p[i] == value. `p` need
// not be aligned; exactly 16 bytes are read.
inline uint32_t MatchByteMask16(const uint8_t* p, uint8_t value) {
#if defined(S4_SIMD_SSE2)
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i match =
      _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(value)));
  return static_cast<uint32_t>(_mm_movemask_epi8(match));
#elif defined(S4_SIMD_NEON)
  const uint8x16_t group = vld1q_u8(p);
  const uint8x16_t match = vceqq_u8(group, vdupq_n_u8(value));
  // movemask emulation: isolate bit (lane % 8) of each 0xFF lane, then
  // horizontally add each half — the per-lane bits are disjoint, so the
  // sums are the low/high 8 bits of the mask.
  const uint8x16_t bit = {1, 2, 4, 8, 16, 32, 64, 128,
                          1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t masked = vandq_u8(match, bit);
  return static_cast<uint32_t>(vaddv_u8(vget_low_u8(masked))) |
         (static_cast<uint32_t>(vaddv_u8(vget_high_u8(masked))) << 8);
#else
  uint32_t mask = 0;
  for (int i = 0; i < kGroupWidth; ++i) {
    mask |= static_cast<uint32_t>(p[i] == value) << i;
  }
  return mask;
#endif
}

// Index of the lowest set bit; `mask` must be nonzero.
inline int FirstLane(uint32_t mask) { return __builtin_ctz(mask); }

// Clears the lowest set bit.
inline uint32_t ClearFirstLane(uint32_t mask) { return mask & (mask - 1); }

}  // namespace s4::simd

#endif  // S4_COMMON_SIMD_H_
