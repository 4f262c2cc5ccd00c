#ifndef SEQDET_STORAGE_SEGMENT_CODEC_H_
#define SEQDET_STORAGE_SEGMENT_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace seqdet::storage {

/// Block codecs of the SDSEG2 segment format (see FORMATS.md).
///
/// The codec id is recorded per block in the segment index footer:
///  - kRaw:  block plaintext stored as-is, values verbatim.
///  - kZstd: whole-block zstd of the kRaw plaintext. Only written when the
///           library was built against zstd (SEQDET_HAVE_ZSTD); builders
///           silently fall back to kRaw otherwise, readers report
///           Corruption.
/// Id 1 is retired: it named a per-value posting transcoder. Posting
/// values now arrive already compressed (index/posting_blocks.h), so the
/// storage layer stores every value verbatim and knows nothing of
/// postings; a segment holding a codec-1 block fails to open.
enum class BlockCodec : uint8_t {
  kRaw = 0,
  kZstd = 2,
};

/// The retired codec id (see BlockCodec).
inline constexpr uint64_t kRetiredPostingCodec = 1;

/// Whether whole-block zstd support was compiled in.
bool ZstdAvailable();

/// Compresses `input` with zstd, appending to `*out`. False when zstd is
/// unavailable or compression fails.
bool ZstdCompressBlock(std::string_view input, std::string* out);

/// Decompresses a zstd block of known decompressed size `raw_size`,
/// appending to `*out`. False when zstd is unavailable, the frame is
/// malformed, or the output size differs from `raw_size`.
bool ZstdDecompressBlock(std::string_view input, size_t raw_size,
                         std::string* out);

}  // namespace seqdet::storage

#endif  // SEQDET_STORAGE_SEGMENT_CODEC_H_
