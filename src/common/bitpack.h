#ifndef SEQDET_COMMON_BITPACK_H_
#define SEQDET_COMMON_BITPACK_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace seqdet {

/// Frame-of-reference bit packing: fixed-width little-endian bit fields
/// appended to a byte string. The writer chooses `bits` as
/// `BitsNeeded(max - min)` over a group of values and stores each value's
/// offset from the group minimum; the reader unpacks with the same width.
/// Widths 0..64 are supported; width 0 appends/reads no bytes (all values
/// equal the frame minimum). The posting-block payload
/// (index/posting_blocks.h) is the one format built on these.

/// Number of bits needed to represent `v` (0 for v == 0).
inline uint32_t BitsNeeded(uint64_t v) {
  uint32_t bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

class BitPacker {
 public:
  explicit BitPacker(std::string* dst) : dst_(dst) {}

  void Put(uint64_t v, uint32_t bits) {
    // Fields wider than 32 bits are split so the 64-bit accumulator can
    // never overflow (bit_count_ < 8 between calls, so chunk + carry ≤ 39).
    if (bits == 0) return;
    if (bits > 32) {
      Put(v & 0xffffffffu, 32);
      Put(v >> 32, bits - 32);
      return;
    }
    acc_ |= (v & ((uint64_t{1} << bits) - 1)) << bit_count_;
    bit_count_ += bits;
    while (bit_count_ >= 8) {
      dst_->push_back(static_cast<char>(acc_ & 0xff));
      acc_ >>= 8;
      bit_count_ -= 8;
    }
  }

  /// Flushes any partial trailing byte (zero-padded high bits).
  void Finish() {
    if (bit_count_ > 0) {
      dst_->push_back(static_cast<char>(acc_ & 0xff));
      acc_ = 0;
      bit_count_ = 0;
    }
  }

 private:
  std::string* dst_;
  uint64_t acc_ = 0;
  uint32_t bit_count_ = 0;
};

/// Unpacks `n` fields of `bits` width (0..64), as BitPacker wrote them,
/// from the front of `*input` into `out[0..n)` and consumes the
/// (n * bits + 7) / 8 bytes they occupy. False (input untouched) when
/// `bits` > 64 or the input is shorter than that.
///
/// Fields are read a word at a time: one unaligned 8-byte load, a shift
/// and a mask per field. The load may cover bytes after the packed fields
/// (they are masked off) but never bytes past the end of `*input`; fields
/// whose load would cross that end, and widths above 56 (which a shifted
/// word cannot hold), take a byte-wise path.
inline bool UnpackBits(std::string_view* input, size_t n, uint32_t bits,
                       uint64_t* out) {
  static_assert(std::endian::native == std::endian::little,
                "the word-at-a-time load assumes a little-endian host");
  if (bits > 64) return false;
  if (bits == 0) {
    std::fill(out, out + n, uint64_t{0});
    return true;
  }
  const size_t size = input->size();
  if (n > size * 8 / bits) return false;
  const size_t packed_bytes = (n * bits + 7) / 8;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  size_t i = 0;
  size_t bit = 0;
  if (bits <= 56 && size >= 8) {
    const size_t last_word = size - 8;
    for (; i < n && (bit >> 3) <= last_word; ++i, bit += bits) {
      uint64_t word;
      std::memcpy(&word, p + (bit >> 3), sizeof(word));
      out[i] = (word >> (bit & 7)) & mask;
    }
  }
  for (; i < n; ++i, bit += bits) {
    size_t byte = bit >> 3;
    uint32_t shift = static_cast<uint32_t>(bit & 7);
    uint64_t v = 0;
    for (uint32_t got = 0; got < bits; got += 8 - shift, shift = 0) {
      v |= static_cast<uint64_t>(p[byte++] >> shift) << got;
    }
    out[i] = v & mask;
  }
  input->remove_prefix(packed_bytes);
  return true;
}

}  // namespace seqdet

#endif  // SEQDET_COMMON_BITPACK_H_
