#include "common/coding.h"


namespace seqdet {

void PutVarint32(std::string* dst, uint32_t v) {
  unsigned char buf[5];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutVarint64(std::string* dst, uint64_t v) {
  unsigned char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}

bool GetVarint32(std::string_view* input, uint32_t* v) {
  uint32_t result = 0;
  for (int shift = 0; shift <= 28 && !input->empty(); shift += 7) {
    unsigned char byte = static_cast<unsigned char>(input->front());
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= static_cast<uint32_t>(byte & 0x7f) << shift;
    } else {
      result |= static_cast<uint32_t>(byte) << shift;
      *v = result;
      return true;
    }
  }
  return false;
}

bool GetVarint64(std::string_view* input, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    unsigned char byte = static_cast<unsigned char>(input->front());
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    } else {
      result |= static_cast<uint64_t>(byte) << shift;
      *v = result;
      return true;
    }
  }
  return false;
}

}  // namespace seqdet
