// fenrir::io — shared little-endian wire primitives.
//
// The FENRSEG1 segment store (io/segment_store.h) and the read-only
// FENRSNAP snapshot decoder that `segment import` migrates from
// (io/snapshot.h) speak the same byte dialect: integers
// little-endian, doubles as IEEE-754 bit patterns in a u64, bulk word
// arrays appended in one memcpy on little-endian hosts, and the same
// 4-lane multiply–rotate payload checksum. This header is that dialect,
// hoisted out of snapshot.cc's anonymous namespace so both formats stay
// byte-compatible by construction instead of by copy.
//
// Everything here is header-only and allocation-free except the
// std::string appends the put_* writers perform.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/dataset_io.h"

namespace fenrir::io::wire {

// Trailer checksum: four independent multiply–rotate lanes over 64-bit
// words, folded to 32 bits. The target is bit rot and truncation, not
// adversarial collisions, and resuming a long watch decodes tens of
// megabytes — a table-driven CRC at a few hundred MB/s would cost more
// than the rest of the decode combined, while the four lanes keep the
// multiplier latency off the critical path and run at memory speed.
inline std::uint32_t payload_checksum(const void* data, std::size_t size) {
  constexpr std::uint64_t kC1 = 0x9E3779B97F4A7C15ull;
  constexpr std::uint64_t kC2 = 0xD6E8FEB86659FD93ull;
  const auto mix = [](std::uint64_t h, std::uint64_t w) {
    h ^= w * kC2;
    h = (h << 27) | (h >> 37);
    return h * kC1;
  };
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h[4] = {kC1, kC2, kC1 ^ 0x5555555555555555ull,
                        kC2 ^ 0x3333333333333333ull};
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, 32);
    h[0] = mix(h[0], w[0]);
    h[1] = mix(h[1], w[1]);
    h[2] = mix(h[2], w[2]);
    h[3] = mix(h[3], w[3]);
  }
  // The 0–31 tail bytes OR-fold into one word, byte k at bit 8·(k mod
  // 8): the shift x86 performed for the original `<< (8 * k)`, which is
  // undefined for k ≥ 8. Pinned so every on-disk checksum keeps its
  // value; tail bytes 8+ therefore share bits with earlier ones and are
  // only weakly covered (a stronger fold would change the format).
  std::uint64_t tail = 0;
  for (int k = 0; i < size; ++i, ++k) {
    tail |= static_cast<std::uint64_t>(p[i]) << (8 * (k & 7));
  }
  h[0] = mix(h[0], tail);
  std::uint64_t out = mix(mix(mix(h[0], h[1]), h[2]), h[3]) ^
                      static_cast<std::uint64_t>(size);
  out ^= out >> 32;
  return static_cast<std::uint32_t>(out);
}

// --- little-endian primitives -------------------------------------------

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_double(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

// Bulk little-endian append of @p count 8-byte words. The big sections
// (Φ values, anchor counts) are tens of megabytes on a long watch; a
// per-element put_u64 would dominate the save. On a little-endian host
// this is one append; the byte loop is the big-endian fallback.
inline void put_u64_array(std::string& out, const void* words,
                          std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    out.append(static_cast<const char*>(words), count * 8);
  } else {
    const auto* p = static_cast<const std::uint64_t*>(words);
    for (std::size_t i = 0; i < count; ++i) put_u64(out, p[i]);
  }
}

inline void patch_u64(std::string& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

inline void patch_u32(std::string& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Bounds-checked reads over a validated payload. The length and CRC
/// checks run first, so an overrun here means internal inconsistency
/// (crafted or miswritten sections), not bit rot. @p what prefixes the
/// diagnostics so a snapshot failure and a segment failure stay
/// distinguishable ("snapshot: malformed section — ...").
struct Reader {
  const unsigned char* p;
  std::size_t size;
  std::size_t off = 0;
  const char* what = "snapshot";

  void need(std::size_t k) const {
    if (size - off < k) {
      throw core::DatasetIoError(
          std::string(what) +
          ": malformed section — a field extends past the recorded "
          "payload");
    }
  }
  std::uint8_t get_u8() {
    need(1);
    return p[off++];
  }
  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[off + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    off += 4;
    return v;
  }
  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[off + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    off += 8;
    return v;
  }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_double() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// A u64 count that is about to size a container: cap it by what the
  /// remaining payload could possibly hold for @p element_bytes-sized
  /// elements, so a crafted count cannot drive a huge allocation.
  std::size_t get_count(std::size_t element_bytes) {
    const std::uint64_t v = get_u64();
    if (element_bytes > 0 && v > (size - off) / element_bytes) {
      throw core::DatasetIoError(
          std::string(what) +
          ": malformed section — a count exceeds the recorded "
          "payload");
    }
    return static_cast<std::size_t>(v);
  }
  void get_bytes(void* dst, std::size_t k) {
    need(k);
    // An empty section's destination may be a null data() pointer,
    // which memcpy must not receive even for zero bytes.
    if (k > 0) std::memcpy(dst, p + off, k);
    off += k;
  }
  /// Bulk read of @p count little-endian 8-byte words — the decode-side
  /// twin of put_u64_array, one memcpy on little-endian hosts.
  void get_u64_array(void* dst, std::size_t count) {
    if constexpr (std::endian::native == std::endian::little) {
      get_bytes(dst, count * 8);
    } else {
      auto* out = static_cast<std::uint64_t*>(dst);
      for (std::size_t i = 0; i < count; ++i) out[i] = get_u64();
    }
  }
};

// --- FNV-1a 64, the identity-hash primitive ------------------------------

inline std::uint64_t fnv_init() { return 1469598103934665603ULL; }

inline void fnv_mix(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
}

inline void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  fnv_mix(h, &v, 8);
}

}  // namespace fenrir::io::wire
