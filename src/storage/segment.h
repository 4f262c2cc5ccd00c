#ifndef SEQDET_STORAGE_SEGMENT_H_
#define SEQDET_STORAGE_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/bloom_filter.h"
#include "storage/record.h"
#include "storage/segment_codec.h"

namespace seqdet::storage {

/// Knobs of the segment writer (see FORMATS.md for the layout).
struct SegmentWriteOptions {
  /// Target plaintext bytes per block (pre-compression).
  size_t block_bytes = 4096;
  /// Entries between key restart points inside a block.
  size_t restart_interval = 16;
  /// Block codec; kZstd degrades to kRaw when zstd is absent.
  BlockCodec codec = BlockCodec::kRaw;
};

/// Immutable sorted run of folded records, the on-disk unit of a table.
///
/// Format SDSEG2: entries are grouped into ~4 KiB blocks (prefix-compressed keys
/// with restart points, values stored verbatim, optional whole-block zstd,
/// per-block CRC); a footer carries fence pointers (first key
/// + offset per block), entry counts and a serialized Bloom filter. The
/// reader mmaps the file, parses only the footer at open (O(footer)), and
/// binary-searches fence pointers on reads, decompressing and CRC-checking
/// just the blocks a Find/LowerBound/Entry touches. Decoded blocks are
/// cached for the segment's lifetime, so returned EntryRef views stay
/// valid as long as the segment is alive. The segment layer stores values
/// as opaque bytes: posting lists arrive already compressed by the index
/// (index/posting_blocks.h).
///
/// Because corruption in a lazily-read block is only discovered when that
/// block is first touched, the read accessors return Result and surface
/// Status::Corruption instead of crashing. A file in the retired flat
/// SDSEG1 format is refused with Status::Unsupported (rebuild the index).
class Segment {
 public:
  struct EntryRef {
    std::string_view key;
    RecordKind kind;
    std::string_view value;
  };

  /// Open/size/compression facts for introspection (`seqdet info`).
  struct Stats {
    size_t num_blocks = 0;
    uint64_t disk_bytes = 0;  // serialized size
    // Raw size of the entries: kind + len-prefixed key + len-prefixed
    // value each, before key prefix compression and block framing.
    uint64_t logical_bytes = 0;
  };

  ~Segment();
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  /// Parses a serialized segment from memory (validates magic, trailer and
  /// footer checksum).
  static Result<std::shared_ptr<Segment>> FromBuffer(std::string buffer);

  /// Opens the segment file at `path`: the file is mmap-ed and only the
  /// footer is parsed.
  static Result<std::shared_ptr<Segment>> Load(const std::string& path);

  /// Binary-searches for `key`; the pointer is nullptr when absent and
  /// otherwise stays valid for the segment's lifetime. The persisted Bloom
  /// filter rejects most absent keys without touching any block.
  Result<const EntryRef*> Find(std::string_view key) const
      REQUIRES(!decode_mu_);

  /// Bloom pre-test only (false = definitely absent).
  bool MayContain(std::string_view key) const {
    return bloom_.MayContain(key);
  }

  /// Index of the first entry with key >= `key` (for scans).
  Result<size_t> LowerBound(std::string_view key) const
      REQUIRES(!decode_mu_);

  /// The entry at `pos` (pos < size()). Views stay valid for the
  /// segment's lifetime.
  Result<EntryRef> Entry(size_t pos) const REQUIRES(!decode_mu_);

  size_t size() const { return entry_count_; }
  size_t SizeBytes() const { return data_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  /// Fence-pointer entry: one per block, parsed from the footer at open.
  struct BlockMeta {
    uint64_t offset = 0;     // file offset of the block's first byte
    uint64_t disk_size = 0;  // bytes on disk (post-compression)
    uint64_t raw_size = 0;   // plaintext bytes (pre-compression)
    uint32_t crc = 0;        // crc32 of the on-disk block bytes
    BlockCodec codec = BlockCodec::kRaw;
    uint64_t entry_base = 0;  // global index of the block's first entry
    uint64_t entry_count = 0;
    std::string_view first_key;  // view into the footer region of data_
  };

  /// A lazily-decoded block, materialized on first touch and cached until
  /// the segment dies: the prefix-expanded keys, plus the plaintext of a
  /// zstd block. Entry values view the segment bytes (or that plaintext)
  /// directly; no value is copied.
  struct DecodedBlock {
    std::string plaintext;  // kZstd blocks only
    std::string keys;
    std::vector<EntryRef> entries;  // views into keys and the block bytes
  };

  Segment() : bloom_(0) {}

  Status Parse() REQUIRES(!decode_mu_);
  /// Decodes block `bi` (CRC check, decompression, entry parse). Touches
  /// mmap-ed bytes, so first access can fault pages in from disk.
  SEQDET_BLOCKING Result<std::unique_ptr<DecodedBlock>> DecodeBlock(
      size_t bi) const;
  /// Returns the cached decode of block `bi`, filling it on first use.
  /// The fill deliberately runs under decode_mu_ (double-checked publish):
  /// decode_mu_ is a leaf lock and serializing the decode is the point —
  /// see the lock-order map in common/sync.h.
  Result<const DecodedBlock*> GetDecodedBlock(size_t bi) const
      REQUIRES(!decode_mu_);
  /// Index of the block that holds global entry `pos`.
  size_t BlockForEntry(size_t pos) const;
  /// Index of the last block whose first_key <= key (0 when key precedes
  /// every fence).
  size_t BlockForKey(std::string_view key) const;

  // Backing bytes: either an owned buffer (FromBuffer) or an mmap (Load);
  // data_ views whichever one is in use.
  std::string buffer_;
  void* map_addr_ = nullptr;
  size_t map_size_ = 0;
  std::string_view data_;

  Stats stats_;
  size_t entry_count_ = 0;
  BloomFilter bloom_;

  // Fence pointers plus the lazy per-block decode cache. Blocks
  // are decoded under decode_mu_ and published through the lock-free
  // atomics in decoded_; once published a block is immutable.
  std::vector<BlockMeta> blocks_;
  mutable Mutex decode_mu_;
  mutable std::vector<std::unique_ptr<DecodedBlock>> decoded_owner_
      GUARDED_BY(decode_mu_);
  mutable std::vector<std::atomic<const DecodedBlock*>> decoded_;
};

/// Streams folded records (in ascending key order) into an SDSEG2
/// segment.
class SegmentBuilder {
 public:
  SegmentBuilder() : SegmentBuilder(SegmentWriteOptions{}) {}
  explicit SegmentBuilder(const SegmentWriteOptions& options);

  /// Adds one entry; keys must be strictly ascending.
  Status Add(std::string_view key, RecordKind kind, std::string_view value);

  /// Seals the segment and returns the serialized bytes.
  std::string Finish();

  size_t num_entries() const { return count_; }

 private:
  void FlushBlock();

  SegmentWriteOptions options_;
  BlockCodec effective_codec_;

  std::string buffer_;  // serialized file so far (starts with the magic)
  std::string last_key_;
  uint64_t count_ = 0;
  bool finished_ = false;

  // The open block and the per-block metadata accumulated for the footer.
  std::string block_;  // plaintext entry region of the open block
  std::vector<uint32_t> restarts_;
  uint64_t block_entry_count_ = 0;
  std::string block_first_key_;
  uint64_t logical_bytes_ = 0;
  struct PendingBlock {
    uint64_t offset;
    uint64_t disk_size;
    uint64_t raw_size;
    uint32_t crc;
    BlockCodec codec;
    uint64_t entry_count;
    std::string first_key;
  };
  std::vector<PendingBlock> pending_;
  std::vector<std::string> keys_;  // for the Bloom filter, sized at Finish
};

/// Writes `buffer` to `path` atomically (write temp + rename).
Status WriteFileAtomic(const std::string& path, std::string_view buffer);

}  // namespace seqdet::storage

#endif  // SEQDET_STORAGE_SEGMENT_H_
