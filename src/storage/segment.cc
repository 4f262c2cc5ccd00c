#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/strings.h"
#include "common/unique_fd.h"

namespace seqdet::storage {

namespace {

// The flat SDSEG1 layout is retired: its magic is recognised only to
// refuse the file with a rebuild hint instead of calling it corrupt.
constexpr std::string_view kRetiredMagic = "SDSEG1";
constexpr std::string_view kMagicV2 = "SDSEG2";

// SDSEG2 trailer: fixed64 index_offset + fixed32 index_crc + tail magic.
// The tail magic doubles as a quick truncation probe before any parsing.
constexpr std::string_view kTailMagicV2 = "SDSEG2.T";
constexpr size_t kV2TrailerSize = 8 + 4 + kTailMagicV2.size();

// Sanity bounds: a segment or decompressed block larger than these is
// treated as corruption rather than attempted as an allocation.
constexpr uint64_t kMaxSegmentBytes = 1ull << 38;   // 256 GiB
constexpr uint64_t kMaxBlockRawBytes = 1ull << 30;  // 1 GiB

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

Segment::~Segment() {
  if (map_addr_ != nullptr) {
    ::munmap(map_addr_, map_size_);
  }
}

Result<std::shared_ptr<Segment>> Segment::FromBuffer(std::string buffer) {
  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->buffer_ = std::move(buffer);
  segment->data_ = segment->buffer_;
  SEQDET_RETURN_IF_ERROR(segment->Parse());
  return segment;
}

Result<std::shared_ptr<Segment>> Segment::Load(const std::string& path) {
  // UniqueFd owns the descriptor through every early return below.
  UniqueFd fd(::open(path.c_str(), O_RDONLY));
  if (!fd.ok()) return Status::IOError("cannot open segment " + path);
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IOError("cannot stat segment " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kMagicV2.size() || size > kMaxSegmentBytes) {
    return Status::Corruption(
        StringPrintf("segment size implausible: %llu bytes (%s)",
                     static_cast<unsigned long long>(size), path.c_str()));
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
  fd.Reset();  // the mapping keeps the file alive; drop the fd either way
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap failed for segment " + path);
  }
  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->map_addr_ = addr;
  segment->map_size_ = size;
  segment->data_ = std::string_view(static_cast<const char*>(addr), size);
  Status status = segment->Parse();
  if (!status.ok()) {
    return Status(status.code(), status.message() + " (" + path + ")");
  }
  return segment;
}

Status Segment::Parse() {
  stats_.disk_bytes = data_.size();
  std::string_view magic = data_.substr(0, kMagicV2.size());
  if (magic == kRetiredMagic) {
    return Status::Unsupported(
        "segment uses the retired SDSEG1 format; rebuild the index from the "
        "log");
  }
  if (magic != kMagicV2) return Status::Corruption("bad segment magic");
  if (data_.size() < kMagicV2.size() + kV2TrailerSize) {
    return Status::Corruption("segment too small");
  }
  std::string_view trailer = data_.substr(data_.size() - kV2TrailerSize);
  uint64_t index_offset;
  uint32_t index_crc;
  GetFixed64(&trailer, &index_offset);
  GetFixed32(&trailer, &index_crc);
  if (trailer != kTailMagicV2) {
    return Status::Corruption("bad segment trailer magic");
  }
  if (index_offset < kMagicV2.size() ||
      index_offset > data_.size() - kV2TrailerSize) {
    return Status::Corruption("segment index offset out of range");
  }
  std::string_view index = data_.substr(
      index_offset, data_.size() - kV2TrailerSize - index_offset);
  if (Crc32(index) != index_crc) {
    return Status::Corruption("segment index checksum mismatch");
  }

  uint64_t num_blocks;
  if (!GetVarint64(&index, &num_blocks)) {
    return Status::Corruption("truncated segment index");
  }
  // Every fence entry costs >= 8 bytes in the index; a larger claim is a
  // garbage footer, not a reason to allocate.
  if (num_blocks > index.size() / 8 + 1) {
    return Status::Corruption("implausible segment block count");
  }
  blocks_.reserve(num_blocks);
  uint64_t entry_base = 0;
  uint64_t expected_offset = kMagicV2.size();
  for (uint64_t i = 0; i < num_blocks; ++i) {
    BlockMeta m;
    uint64_t codec;
    if (!GetVarint64(&index, &m.offset) ||
        !GetVarint64(&index, &m.disk_size) || !GetFixed32(&index, &m.crc) ||
        !GetVarint64(&index, &codec) ||
        !GetVarint64(&index, &m.entry_count) ||
        !GetVarint64(&index, &m.raw_size) ||
        !GetLengthPrefixed(&index, &m.first_key)) {
      return Status::Corruption("truncated segment index");
    }
    if (codec == kRetiredPostingCodec) {
      return Status::Corruption(
          "segment block uses retired codec 1 (posting transcode); rebuild "
          "the index");
    }
    if (m.offset != expected_offset || m.disk_size == 0 ||
        m.offset + m.disk_size > index_offset || m.entry_count == 0 ||
        (codec != static_cast<uint64_t>(BlockCodec::kRaw) &&
         codec != static_cast<uint64_t>(BlockCodec::kZstd)) ||
        m.raw_size > kMaxBlockRawBytes ||
        (static_cast<BlockCodec>(codec) != BlockCodec::kZstd &&
         m.raw_size != m.disk_size)) {
      return Status::Corruption("bad segment block descriptor");
    }
    if (i > 0 && m.first_key <= blocks_.back().first_key) {
      return Status::Corruption("segment fence keys not ascending");
    }
    m.codec = static_cast<BlockCodec>(codec);
    m.entry_base = entry_base;
    entry_base += m.entry_count;
    expected_offset = m.offset + m.disk_size;
    blocks_.push_back(m);
  }
  uint64_t total = 0;
  if (!GetVarint64(&index, &total) || total != entry_base) {
    return Status::Corruption("segment entry count mismatch");
  }
  if (!GetVarint64(&index, &stats_.logical_bytes)) {
    return Status::Corruption("truncated segment index");
  }
  if (!bloom_.Deserialize(&index)) {
    return Status::Corruption("bad segment bloom filter");
  }
  if (!index.empty()) {
    return Status::Corruption("trailing bytes in segment index");
  }
  entry_count_ = total;
  stats_.num_blocks = blocks_.size();
  {
    MutexLock lock(decode_mu_);
    decoded_owner_.resize(blocks_.size());
  }
  decoded_ =
      std::vector<std::atomic<const DecodedBlock*>>(blocks_.size());
  return Status::OK();
}

Result<std::unique_ptr<Segment::DecodedBlock>> Segment::DecodeBlock(
    size_t bi) const {
  const BlockMeta& m = blocks_[bi];
  std::string_view disk = data_.substr(m.offset, m.disk_size);
  if (Crc32(disk) != m.crc) {
    return Status::Corruption("segment block checksum mismatch");
  }
  auto block = std::make_unique<DecodedBlock>();
  std::string_view plain = disk;
  if (m.codec == BlockCodec::kZstd) {
    if (!ZstdAvailable()) {
      return Status::Corruption(
          "segment block uses zstd but support is not compiled in");
    }
    if (!ZstdDecompressBlock(disk, m.raw_size, &block->plaintext)) {
      return Status::Corruption("segment block zstd decode failed");
    }
    plain = block->plaintext;
  }

  if (plain.size() < 4) {
    return Status::Corruption("segment block too small");
  }
  std::string_view tail = plain.substr(plain.size() - 4);
  uint32_t num_restarts = 0;
  GetFixed32(&tail, &num_restarts);
  if (4 + static_cast<uint64_t>(num_restarts) * 4 > plain.size()) {
    return Status::Corruption("bad segment block restart count");
  }
  std::string_view cursor =
      plain.substr(0, plain.size() - 4 - num_restarts * 4);

  // Values are views into `plain`, which lives as long as the segment
  // (the mapped file, the owned buffer or the block's own plaintext).
  // Keys are prefix-compressed, so they are rebuilt into the block's key
  // arena; views cannot be taken while it grows (reallocation would move
  // it), so key positions are recorded as offsets first and converted to
  // string_views once the arena is final.
  struct Pending {
    size_t key_off, key_len;
    RecordKind kind;
    std::string_view value;
  };
  std::vector<Pending> pending;
  pending.reserve(m.entry_count);
  std::string prev_key;
  for (uint64_t i = 0; i < m.entry_count; ++i) {
    uint64_t shared, unshared, value_len;
    if (!GetVarint64(&cursor, &shared) || !GetVarint64(&cursor, &unshared) ||
        !GetVarint64(&cursor, &value_len) || cursor.empty()) {
      return Status::Corruption("truncated segment block entry");
    }
    uint8_t kind = static_cast<uint8_t>(cursor.front());
    cursor.remove_prefix(1);
    if (kind > static_cast<uint8_t>(RecordKind::kDelete)) {
      return Status::Corruption("bad record kind in segment block");
    }
    if (shared > prev_key.size() || cursor.size() < unshared) {
      return Status::Corruption("bad key prefix in segment block");
    }
    prev_key.resize(shared);
    prev_key.append(cursor.substr(0, unshared));
    cursor.remove_prefix(unshared);
    if (cursor.size() < value_len) {
      return Status::Corruption("truncated segment block value");
    }
    pending.push_back(Pending{block->keys.size(), prev_key.size(),
                              static_cast<RecordKind>(kind),
                              cursor.substr(0, value_len)});
    block->keys.append(prev_key);
    cursor.remove_prefix(value_len);
  }
  if (!cursor.empty()) {
    return Status::Corruption("trailing bytes in segment block");
  }

  block->entries.reserve(pending.size());
  const std::string_view keys(block->keys);
  for (const Pending& p : pending) {
    block->entries.push_back(
        EntryRef{keys.substr(p.key_off, p.key_len), p.kind, p.value});
  }
  if (!block->entries.empty() && block->entries.front().key != m.first_key) {
    return Status::Corruption("segment block first key mismatch");
  }
  return block;
}

Result<const Segment::DecodedBlock*> Segment::GetDecodedBlock(
    size_t bi) const {
  const DecodedBlock* cached =
      decoded_[bi].load(std::memory_order_acquire);
  if (cached != nullptr) return cached;
  MutexLock lock(decode_mu_);
  cached = decoded_[bi].load(std::memory_order_relaxed);
  if (cached != nullptr) return cached;
  SEQDET_ASSIGN_OR_RETURN(auto block, DecodeBlock(bi));
  const DecodedBlock* ptr = block.get();
  decoded_owner_[bi] = std::move(block);
  decoded_[bi].store(ptr, std::memory_order_release);
  return ptr;
}

size_t Segment::BlockForEntry(size_t pos) const {
  // Last block with entry_base <= pos.
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), pos,
      [](size_t p, const BlockMeta& m) { return p < m.entry_base; });
  return static_cast<size_t>(it - blocks_.begin()) - 1;
}

size_t Segment::BlockForKey(std::string_view key) const {
  // Last block with first_key <= key (block 0 when key precedes every
  // fence — the global lower bound then lands at its beginning anyway).
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), key,
      [](std::string_view k, const BlockMeta& m) { return k < m.first_key; });
  if (it == blocks_.begin()) return 0;
  return static_cast<size_t>(it - blocks_.begin()) - 1;
}

Result<size_t> Segment::LowerBound(std::string_view key) const {
  if (blocks_.empty()) return size_t{0};
  size_t bi = BlockForKey(key);
  SEQDET_ASSIGN_OR_RETURN(const DecodedBlock* block, GetDecodedBlock(bi));
  auto it = std::lower_bound(
      block->entries.begin(), block->entries.end(), key,
      [](const EntryRef& e, std::string_view k) { return e.key < k; });
  return blocks_[bi].entry_base +
         static_cast<size_t>(it - block->entries.begin());
}

Result<const Segment::EntryRef*> Segment::Find(std::string_view key) const {
  if (!bloom_.MayContain(key)) {
    return static_cast<const EntryRef*>(nullptr);
  }
  if (blocks_.empty()) return static_cast<const EntryRef*>(nullptr);
  size_t bi = BlockForKey(key);
  SEQDET_ASSIGN_OR_RETURN(const DecodedBlock* block, GetDecodedBlock(bi));
  auto it = std::lower_bound(
      block->entries.begin(), block->entries.end(), key,
      [](const EntryRef& e, std::string_view k) { return e.key < k; });
  if (it != block->entries.end() && it->key == key) return &*it;
  return static_cast<const EntryRef*>(nullptr);
}

Result<Segment::EntryRef> Segment::Entry(size_t pos) const {
  if (pos >= entry_count_) {
    return Status::InvalidArgument("segment entry index out of range");
  }
  size_t bi = BlockForEntry(pos);
  SEQDET_ASSIGN_OR_RETURN(const DecodedBlock* block, GetDecodedBlock(bi));
  return block->entries[pos - blocks_[bi].entry_base];
}

SegmentBuilder::SegmentBuilder(const SegmentWriteOptions& options)
    : options_(options), effective_codec_(options.codec) {
  if (effective_codec_ == BlockCodec::kZstd && !ZstdAvailable()) {
    effective_codec_ = BlockCodec::kRaw;
  }
  if (options_.restart_interval == 0) options_.restart_interval = 1;
  buffer_.append(kMagicV2);
}

Status SegmentBuilder::Add(std::string_view key, RecordKind kind,
                           std::string_view value) {
  if (finished_) return Status::Internal("builder already finished");
  if (count_ > 0 && key <= last_key_) {
    return Status::InvalidArgument("segment keys must be strictly ascending");
  }
  logical_bytes_ += 1 + VarintLen(key.size()) + key.size() +
                    VarintLen(value.size()) + value.size();
  if (block_entry_count_ == 0) block_first_key_.assign(key);
  size_t shared = 0;
  if (block_entry_count_ % options_.restart_interval == 0) {
    restarts_.push_back(static_cast<uint32_t>(block_.size()));
  } else {
    size_t limit = std::min(key.size(), last_key_.size());
    while (shared < limit && key[shared] == last_key_[shared]) ++shared;
  }
  PutVarint64(&block_, shared);
  PutVarint64(&block_, key.size() - shared);
  PutVarint64(&block_, value.size());
  block_.push_back(static_cast<char>(kind));
  block_.append(key.substr(shared));
  block_.append(value);
  keys_.emplace_back(key);
  last_key_.assign(key);
  ++block_entry_count_;
  ++count_;
  if (block_.size() >= options_.block_bytes) FlushBlock();
  return Status::OK();
}

void SegmentBuilder::FlushBlock() {
  if (block_entry_count_ == 0) return;
  for (uint32_t r : restarts_) PutFixed32(&block_, r);
  PutFixed32(&block_, static_cast<uint32_t>(restarts_.size()));

  PendingBlock m;
  m.offset = buffer_.size();
  m.raw_size = block_.size();
  m.entry_count = block_entry_count_;
  m.first_key = block_first_key_;
  m.codec = effective_codec_;
  if (effective_codec_ == BlockCodec::kZstd) {
    std::string compressed;
    if (ZstdCompressBlock(block_, &compressed) &&
        compressed.size() < block_.size()) {
      m.disk_size = compressed.size();
      m.crc = Crc32(compressed);
      buffer_.append(compressed);
    } else {
      // Incompressible block: store the plaintext under kRaw so readers
      // skip the zstd path entirely.
      m.codec = BlockCodec::kRaw;
      m.disk_size = block_.size();
      m.crc = Crc32(block_);
      buffer_.append(block_);
    }
  } else {
    m.disk_size = block_.size();
    m.crc = Crc32(block_);
    buffer_.append(block_);
  }
  pending_.push_back(std::move(m));
  block_.clear();
  restarts_.clear();
  block_entry_count_ = 0;
  block_first_key_.clear();
}

std::string SegmentBuilder::Finish() {
  finished_ = true;
  FlushBlock();
  const uint64_t index_offset = buffer_.size();
  std::string index;
  PutVarint64(&index, pending_.size());
  for (const PendingBlock& m : pending_) {
    PutVarint64(&index, m.offset);
    PutVarint64(&index, m.disk_size);
    PutFixed32(&index, m.crc);
    PutVarint64(&index, static_cast<uint64_t>(m.codec));
    PutVarint64(&index, m.entry_count);
    PutVarint64(&index, m.raw_size);
    PutLengthPrefixed(&index, m.first_key);
  }
  PutVarint64(&index, count_);
  PutVarint64(&index, logical_bytes_);
  BloomFilter bloom(keys_.size());
  for (const std::string& key : keys_) bloom.Add(key);
  bloom.Serialize(&index);
  const uint32_t index_crc = Crc32(index);
  buffer_.append(index);
  PutFixed64(&buffer_, index_offset);
  PutFixed32(&buffer_, index_crc);
  buffer_.append(kTailMagicV2);
  return std::move(buffer_);
}

Status WriteFileAtomic(const std::string& path, std::string_view buffer) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    if (!out) return Status::IOError("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

}  // namespace seqdet::storage
