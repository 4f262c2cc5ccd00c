#ifndef SEQDET_COMMON_CODING_H_
#define SEQDET_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace seqdet {

/// Little-endian fixed-width and LEB128 varint byte coding.
///
/// All on-disk and in-index values in this library are serialized through
/// these helpers so that the format is deterministic and
/// platform-independent. Decoders take a `std::string_view*` cursor that is
/// advanced past the consumed bytes and return false on truncation.

// ---------------------------------------------------------------------------
// Fixed-width encoding (little endian).
// ---------------------------------------------------------------------------

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  dst->append(buf, 8);
}

inline bool GetFixed32(std::string_view* input, uint32_t* v) {
  if (input->size() < 4) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  input->remove_prefix(4);
  return true;
}

inline bool GetFixed64(std::string_view* input, uint64_t* v) {
  if (input->size() < 8) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  *v = out;
  input->remove_prefix(8);
  return true;
}

// ---------------------------------------------------------------------------
// Varint (LEB128) encoding.
// ---------------------------------------------------------------------------

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);
bool GetVarint32(std::string_view* input, uint32_t* v);
bool GetVarint64(std::string_view* input, uint64_t* v);

/// ZigZag maps signed integers to unsigned so small magnitudes stay short.
inline uint64_t ZigZagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode64(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutVarint64SignedZigZag(std::string* dst, int64_t v) {
  PutVarint64(dst, ZigZagEncode64(v));
}
inline bool GetVarint64SignedZigZag(std::string_view* input, int64_t* v) {
  uint64_t u;
  if (!GetVarint64(input, &u)) return false;
  *v = ZigZagDecode64(u);
  return true;
}

// ---------------------------------------------------------------------------
// Length-prefixed strings.
// ---------------------------------------------------------------------------

inline void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

inline bool GetLengthPrefixed(std::string_view* input, std::string_view* out) {
  uint64_t len;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *out = input->substr(0, len);
  input->remove_prefix(len);
  return true;
}

// ---------------------------------------------------------------------------
// Order-preserving (big endian) key encoding: memcmp order on the encoded
// bytes equals numeric order, which makes composite keys prefix-scannable.
// ---------------------------------------------------------------------------

inline void PutKeyU32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>((v >> 24) & 0xff);
  buf[1] = static_cast<char>((v >> 16) & 0xff);
  buf[2] = static_cast<char>((v >> 8) & 0xff);
  buf[3] = static_cast<char>(v & 0xff);
  dst->append(buf, 4);
}

inline void PutKeyU64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * (7 - i))) & 0xff);
  }
  dst->append(buf, 8);
}

inline bool GetKeyU32(std::string_view* input, uint32_t* v) {
  if (input->size() < 4) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  *v = (static_cast<uint32_t>(p[0]) << 24) |
       (static_cast<uint32_t>(p[1]) << 16) |
       (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
  input->remove_prefix(4);
  return true;
}

inline bool GetKeyU64(std::string_view* input, uint64_t* v) {
  if (input->size() < 8) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input->data());
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out = (out << 8) | p[i];
  }
  *v = out;
  input->remove_prefix(8);
  return true;
}

/// Encodes a double via its IEEE-754 bit pattern.
inline void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

inline bool GetDouble(std::string_view* input, double* v) {
  uint64_t bits;
  if (!GetFixed64(input, &bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

}  // namespace seqdet

#endif  // SEQDET_COMMON_CODING_H_
