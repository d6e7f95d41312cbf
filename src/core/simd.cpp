// Portable half of the SIMD dispatch layer: the scalar kernel table
// (always available, also the tail routines the vector TUs reuse), cpuid
// feature detection, and the JSTAR_SIMD / JSTAR_MORSELS kill-switches.
// The -m flag-gated vector tables live in simd_kernels_{avx2,avx512,
// neon}.cpp.
#include "core/simd.h"

#include <cctype>
#include <cstdlib>
#include <string>

namespace jstar::simd {

namespace {

std::int64_t scalar_count_in_range(const std::int64_t* v, std::size_t n,
                                   std::int64_t lo, std::int64_t hi) {
  std::int64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::int64_t>(static_cast<int>(v[i] >= lo) &
                                   static_cast<int>(v[i] <= hi));
  }
  return c;
}

void scalar_mask_and_in_range(const std::int64_t* v, std::size_t n,
                              std::int64_t lo, std::int64_t hi,
                              std::uint8_t* sel) {
  for (std::size_t i = 0; i < n; ++i) {
    sel[i] &= static_cast<std::uint8_t>(static_cast<int>(v[i] >= lo) &
                                        static_cast<int>(v[i] <= hi));
  }
}

std::int64_t scalar_mask_count(const std::uint8_t* sel, std::size_t n) {
  std::int64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += sel[i];
  return c;
}

bool scalar_masked_min_i64(const std::int64_t* v, const std::uint8_t* sel,
                           std::size_t n, std::int64_t* out_min,
                           std::size_t* out_row) {
  bool found = false;
  std::int64_t best = 0;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!sel[i]) continue;
    // Strict less keeps the earliest row on ties.
    if (!found || v[i] < best) {
      found = true;
      best = v[i];
      best_i = i;
    }
  }
  if (found) {
    *out_min = best;
    *out_row = best_i;
  }
  return found;
}

constexpr Kernels kScalar{scalar_count_in_range, scalar_mask_and_in_range,
                          scalar_mask_count, scalar_masked_min_i64};

Level detect_level_uncached() {
#if defined(__aarch64__)
  return neon_kernels() != nullptr ? Level::Neon : Level::Scalar;
#elif (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && avx512_kernels() != nullptr) {
    return Level::Avx512;
  }
  if (__builtin_cpu_supports("avx2") && avx2_kernels() != nullptr) {
    return Level::Avx2;
  }
  return Level::Scalar;
#else
  return Level::Scalar;
#endif
}

/// The value of env switch `name`, lower-cased, with every spelling of
/// "off" ("off", "0", "false") folded to "off"; empty when unset.
std::string env_switch(const char* name) {
  std::string s;
  for (const char* p = std::getenv(name); p != nullptr && *p != '\0'; ++p) {
    s.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(*p))));
  }
  return s == "0" || s == "false" ? "off" : s;
}

Level env_cap() {
  const std::string s = env_switch("JSTAR_SIMD");
  if (s == "off" || s == "scalar") return Level::Scalar;
  if (s == "neon") return Level::Neon;
  if (s == "avx2") return Level::Avx2;
  return Level::Avx512;  // unset, "avx512" or unrecognized: no cap
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::Neon:
      return "neon";
    case Level::Avx2:
      return "avx2";
    case Level::Avx512:
      return "avx512";
    case Level::Scalar:
    default:
      return "scalar";
  }
}

const Kernels& scalar_kernels() { return kScalar; }

Level detect_level() {
  static const Level cached = detect_level_uncached();
  return cached;
}

Level active_level() {
  static const Level cached = [] {
    const Level hw = detect_level();
    const Level cap = env_cap();
    return resolved_level(hw < cap ? hw : cap);
  }();
  return cached;
}

const Kernels& kernels(Level level) {
  // Degrade to the nearest available lower level: an Avx512 request in a
  // binary without the AVX-512 TU resolves to AVX2, then scalar.
  if (level == Level::Avx512) {
    if (const Kernels* k = avx512_kernels()) return *k;
    level = Level::Avx2;
  }
  if (level == Level::Avx2) {
    if (const Kernels* k = avx2_kernels()) return *k;
  }
  if (level == Level::Neon) {
    if (const Kernels* k = neon_kernels()) return *k;
  }
  return kScalar;
}

Level resolved_level(Level level) {
  if (level == Level::Avx512 && avx512_kernels() != nullptr) {
    return Level::Avx512;
  }
  if (level >= Level::Avx2 && avx2_kernels() != nullptr) return Level::Avx2;
  if (level == Level::Neon && neon_kernels() != nullptr) return Level::Neon;
  return Level::Scalar;
}

const Kernels& active_kernels() { return kernels(active_level()); }

bool morsels_env_on() {
  static const bool on = env_switch("JSTAR_MORSELS") != "off";
  return on;
}

}  // namespace jstar::simd
