#include "por/stream/slz4.hpp"

#include <cstring>

#include "por/resilience/error.hpp"

namespace por::stream {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kWindow = 65535;  // 16-bit offsets
constexpr std::size_t kHashBits = 14;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
// The greedy matcher stops this many bytes before the end: the final
// bytes always ship as literals, which keeps the decoder's copy loops
// free of end-of-buffer special cases (same policy as LZ4's
// MFLIMIT/LASTLITERALS pair).
constexpr std::size_t kTailLiterals = 12;

[[nodiscard]] std::uint32_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

[[nodiscard]] std::size_t hash4(std::uint32_t v) {
  // Fibonacci hashing of the 4-byte probe (the 32-bit golden-ratio
  // multiplier), top kHashBits bits.
  return static_cast<std::size_t>((v * 2654435761u) >> (32 - kHashBits));
}

/// Emit a length as nibble + 0xFF extension run.  Returns false when
/// the output head would pass `end`.
bool put_length(unsigned char*& out, const unsigned char* end,
                std::size_t len) {
  while (len >= 255) {
    if (out >= end) return false;
    *out++ = 255;
    len -= 255;
  }
  if (out >= end) return false;
  *out++ = static_cast<unsigned char>(len);
  return true;
}

}  // namespace

std::size_t slz4_compress(const void* src, std::size_t src_bytes, void* dst,
                          std::size_t dst_capacity) {
  const auto* in = static_cast<const unsigned char*>(src);
  auto* out = static_cast<unsigned char*>(dst);
  const unsigned char* const out_end = out + dst_capacity;

  // Table of last positions for each 4-byte hash; +1 biased so the
  // zero-initialized table never aliases position 0.
  std::size_t table[kHashSize] = {};

  std::size_t pos = 0;       // scan head
  std::size_t anchor = 0;    // first unemitted literal
  const std::size_t match_limit =
      src_bytes > kTailLiterals ? src_bytes - kTailLiterals : 0;

  const auto emit_sequence = [&](std::size_t literals, std::size_t match_len,
                                 std::size_t offset) -> bool {
    if (out >= out_end) return false;
    unsigned char* token = out++;
    const std::size_t lit_nibble = literals < 15 ? literals : 15;
    std::size_t match_nibble = 0;
    if (match_len > 0) {
      const std::size_t m = match_len - kMinMatch;
      match_nibble = m < 15 ? m : 15;
    }
    *token = static_cast<unsigned char>((lit_nibble << 4) | match_nibble);
    if (literals >= 15 && !put_length(out, out_end, literals - 15)) {
      return false;
    }
    if (out + literals > out_end) return false;
    std::memcpy(out, in + anchor, literals);
    out += literals;
    if (match_len == 0) return true;  // final literal-only sequence
    if (out + 2 > out_end) return false;
    *out++ = static_cast<unsigned char>(offset & 0xFF);
    *out++ = static_cast<unsigned char>(offset >> 8);
    if (match_len - kMinMatch >= 15 &&
        !put_length(out, out_end, match_len - kMinMatch - 15)) {
      return false;
    }
    return true;
  };

  while (pos + kMinMatch <= match_limit) {
    const std::uint32_t probe = load32(in + pos);
    const std::size_t h = hash4(probe);
    const std::size_t candidate = table[h];
    table[h] = pos + 1;
    if (candidate != 0 && pos - (candidate - 1) <= kWindow &&
        load32(in + (candidate - 1)) == probe) {
      const std::size_t match_pos = candidate - 1;
      // Extend the match forward as far as the limit allows.
      std::size_t len = kMinMatch;
      while (pos + len < match_limit && in[match_pos + len] == in[pos + len]) {
        ++len;
      }
      if (!emit_sequence(pos - anchor, len, pos - match_pos)) return 0;
      pos += len;
      anchor = pos;
    } else {
      ++pos;
    }
  }

  // Trailing literals (always at least kTailLiterals of them unless the
  // input was tiny).
  if (!emit_sequence(src_bytes - anchor, 0, 0)) return 0;
  return static_cast<std::size_t>(out - static_cast<unsigned char*>(dst));
}

void slz4_decompress(const void* src, std::size_t src_bytes, void* dst,
                     std::size_t raw_bytes) {
  const auto* in = static_cast<const unsigned char*>(src);
  const unsigned char* const in_end = in + src_bytes;
  auto* out = static_cast<unsigned char*>(dst);
  unsigned char* const out_begin = out;
  unsigned char* const out_end = out + raw_bytes;

  const auto read_length = [&](std::size_t nibble) -> std::size_t {
    std::size_t len = nibble;
    if (nibble == 15) {
      unsigned char byte;
      do {
        if (in >= in_end) {
          throw resilience::corrupt_error(
              "slz4: truncated length extension");
        }
        byte = *in++;
        len += byte;
      } while (byte == 255);
    }
    return len;
  };

  while (in < in_end) {
    const unsigned char token = *in++;
    // Literals.
    const std::size_t literals = read_length(token >> 4);
    if (static_cast<std::size_t>(in_end - in) < literals) {
      throw resilience::corrupt_error("slz4: literal run past input end");
    }
    if (static_cast<std::size_t>(out_end - out) < literals) {
      throw resilience::corrupt_error("slz4: literal run past output end");
    }
    // memcpy with a null `out` is UB even for zero bytes (an empty
    // output buffer may have no storage).
    if (literals != 0) std::memcpy(out, in, literals);
    in += literals;
    out += literals;
    if (in == in_end) break;  // final literal-only sequence
    // Match.
    if (in_end - in < 2) {
      throw resilience::corrupt_error("slz4: truncated match offset");
    }
    const std::size_t offset =
        static_cast<std::size_t>(in[0]) | (static_cast<std::size_t>(in[1]) << 8);
    in += 2;
    if (offset == 0 || offset > static_cast<std::size_t>(out - out_begin)) {
      throw resilience::corrupt_error("slz4: match offset outside window");
    }
    const std::size_t match_len = read_length(token & 0x0F) + kMinMatch;
    if (static_cast<std::size_t>(out_end - out) < match_len) {
      throw resilience::corrupt_error("slz4: match run past output end");
    }
    // Byte-wise copy on purpose: offsets < match_len overlap (RLE-style
    // matches replicate the window as they go).
    const unsigned char* from = out - offset;
    for (std::size_t i = 0; i < match_len; ++i) out[i] = from[i];
    out += match_len;
  }

  if (out != out_end) {
    throw resilience::corrupt_error("slz4: block decodes to wrong size");
  }
}

}  // namespace por::stream
