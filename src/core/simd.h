// Runtime-dispatched SIMD kernels for the columnar substrate (ROADMAP
// item 3's remaining headroom: "explicit SIMD via -march gates or runtime
// dispatch").
//
// Shape: four int64 primitives — range count, range mask-AND, mask
// popcount, masked argmin — each available at several dispatch levels.
// The portable scalar level always exists; AVX2 and AVX-512 levels are
// compiled in their own translation units (simd_kernels_avx2.cpp etc.)
// which CMake builds with the matching -m flags, so the rest of the
// binary stays portable and the right level is picked *at runtime* via
// cpuid (__builtin_cpu_supports).  On aarch64 the NEON level is baseline
// and needs no flag gate.
//
// Kill-switch: JSTAR_SIMD=off|scalar pins the scalar level regardless of
// the host (JSTAR_SIMD=avx2 caps an AVX-512 host at AVX2); the
// EngineOptions::simd flag reaches stores through TableBase::RuntimeEnv
// and ExecHints (core/gamma_store.h) — the env var wins over the option
// so differential harnesses can pin the reference path from outside.
//
// The primitives operate on raw int64 arrays + byte masks (the
// ColumnStore selection shape).  Bounds are inclusive [lo, hi] in int64
// space, matching ColumnarOps<T>::Bound; INT64_MIN/MAX bounds are legal
// and exercised by the differential tests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jstar::simd {

enum class Level { Scalar = 0, Neon = 1, Avx2 = 2, Avx512 = 3 };

const char* to_string(Level level);

/// One dispatch level's kernel table.  All pointers are always non-null
/// (levels that lack a fused form fall back to the scalar routine).
struct Kernels {
  /// Number of v[i] with lo <= v[i] <= hi (inclusive).
  std::int64_t (*count_in_range)(const std::int64_t* v, std::size_t n,
                                 std::int64_t lo, std::int64_t hi);
  /// sel[i] &= (lo <= v[i] <= hi), byte mask (0/1 in, 0/1 out).
  void (*mask_and_in_range)(const std::int64_t* v, std::size_t n,
                            std::int64_t lo, std::int64_t hi,
                            std::uint8_t* sel);
  /// Number of set bytes in sel[0..n).  Bytes must be 0 or 1 (the shape
  /// mask_and_in_range produces) — the vector levels count by summing /
  /// popcounting rather than testing for non-zero.
  std::int64_t (*mask_count)(const std::uint8_t* sel, std::size_t n);
  /// Min of v[i] over sel[i] != 0, with *out_row the smallest index
  /// attaining it (earliest-row tie-break, same contract as the scalar
  /// argmin in kernel_min_row).  Returns false when nothing is selected.
  bool (*masked_min_i64)(const std::int64_t* v, const std::uint8_t* sel,
                         std::size_t n, std::int64_t* out_min,
                         std::size_t* out_row);
};

/// The scalar kernels (always available; also the tail/fallback routines
/// the vector levels delegate to).
const Kernels& scalar_kernels();

/// What the hardware supports (cpuid on x86, baseline NEON on aarch64).
/// Cached after the first call.
Level detect_level();

/// detect_level() capped by the JSTAR_SIMD env var ("off"/"scalar" pins
/// Scalar, "neon"/"avx2"/"avx512" cap at that level, unset/other keeps
/// the detected level).  Cached after the first call.
Level active_level();

/// Kernel table for `level`, degrading to the nearest available lower
/// level (e.g. asking for Avx512 in a binary whose AVX-512 TU was not
/// flag-enabled returns the AVX2 or scalar table).
const Kernels& kernels(Level level);

/// kernels(active_level()).
const Kernels& active_kernels();

/// JSTAR_MORSELS kill-switch (the morsel axis' analogue of JSTAR_SIMD):
/// false when the env var is off/0/false, true otherwise.  Cached after
/// the first call.  Stores AND this with ExecHints::morsels.
bool morsels_env_on();

/// Always true: buffered emission is the engine's only put path.  Kept
/// because the end-to-end benchmark (e2ebench/) records it per host.
inline bool emit_env_on() { return true; }

/// The level kernels(level) actually resolves to — what describe() and
/// the bench JSON report.
Level resolved_level(Level level);

// Per-ISA tables, defined in their own -m flag-gated TUs; nullptr when
// that TU was compiled without the ISA (non-x86 build, compiler without
// the flag).
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();
const Kernels* neon_kernels();

}  // namespace jstar::simd
