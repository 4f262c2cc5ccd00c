#include "storage/segment_codec.h"

#if defined(SEQDET_HAVE_ZSTD)
#include <zstd.h>
#endif

namespace seqdet::storage {

bool ZstdAvailable() {
#if defined(SEQDET_HAVE_ZSTD)
  return true;
#else
  return false;
#endif
}

bool ZstdCompressBlock(std::string_view input, std::string* out) {
#if defined(SEQDET_HAVE_ZSTD)
  size_t bound = ZSTD_compressBound(input.size());
  size_t base = out->size();
  out->resize(base + bound);
  size_t n = ZSTD_compress(out->data() + base, bound, input.data(),
                           input.size(), /*level=*/3);
  if (ZSTD_isError(n)) {
    out->resize(base);
    return false;
  }
  out->resize(base + n);
  return true;
#else
  (void)input;
  (void)out;
  return false;
#endif
}

bool ZstdDecompressBlock(std::string_view input, size_t raw_size,
                         std::string* out) {
#if defined(SEQDET_HAVE_ZSTD)
  size_t base = out->size();
  out->resize(base + raw_size);
  size_t n =
      ZSTD_decompress(out->data() + base, raw_size, input.data(), input.size());
  if (ZSTD_isError(n) || n != raw_size) {
    out->resize(base);
    return false;
  }
  return true;
#else
  (void)input;
  (void)raw_size;
  (void)out;
  return false;
#endif
}

}  // namespace seqdet::storage
