// SDSEG2 format tests: round trips, mmap vs buffered reader equivalence,
// retired formats (SDSEG1 files and the retired posting codec) refused
// cleanly, bit packing, and corruption fuzzing (every damage must surface
// as Status::Corruption, never as a crash or wrong data).

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitpack.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/strings.h"
#include "storage/database.h"
#include "storage/segment.h"
#include "storage/segment_codec.h"

namespace seqdet {
namespace {

namespace fs = std::filesystem;
using storage::RecordKind;
using storage::Segment;
using storage::SegmentBuilder;
using storage::SegmentWriteOptions;
using storage::WriteFileAtomic;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("seqdet_segment_v2_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// Deterministic keys/values spanning several blocks. Values are plain
// strings here; posting-shaped values get their own tests below.
std::vector<std::pair<std::string, std::string>> MakeEntries(int n) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.emplace_back(StringPrintf("key%06d", i),
                     StringPrintf("value-%d-%s", i,
                                  std::string(i % 50, 'x').c_str()));
  }
  return out;
}

std::string BuildSegment(
    const std::vector<std::pair<std::string, std::string>>& entries,
    const SegmentWriteOptions& options) {
  SegmentBuilder builder(options);
  for (const auto& [k, v] : entries) {
    EXPECT_TRUE(builder.Add(k, RecordKind::kPut, v).ok());
  }
  return builder.Finish();
}

void ExpectReadsAllEntries(
    const Segment& segment,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  ASSERT_EQ(segment.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    auto e = segment.Entry(i);
    ASSERT_TRUE(e.ok()) << e.status();
    EXPECT_EQ(e->key, entries[i].first);
    EXPECT_EQ(e->value, entries[i].second);
    EXPECT_EQ(e->kind, RecordKind::kPut);
  }
  // Point lookups on a sample plus guaranteed misses.
  for (size_t i = 0; i < entries.size(); i += 37) {
    auto found = segment.Find(entries[i].first);
    ASSERT_TRUE(found.ok()) << found.status();
    ASSERT_NE(*found, nullptr) << entries[i].first;
    EXPECT_EQ((*found)->value, entries[i].second);
  }
  auto miss = segment.Find("zzz-not-there");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, nullptr);
  // LowerBound agrees with a lower_bound over the entries for keys on,
  // between and past block fences.
  for (const std::string probe :
       {"key000000", "key000100x", "key001999", "zzz", "a"}) {
    auto bound = segment.LowerBound(probe);
    ASSERT_TRUE(bound.ok()) << bound.status();
    auto expected = std::lower_bound(
        entries.begin(), entries.end(), probe,
        [](const auto& e, const std::string& k) { return e.first < k; });
    EXPECT_EQ(*bound, static_cast<size_t>(expected - entries.begin()))
        << probe;
  }
}

TEST(SegmentV2Test, RoundTripManyBlocks) {
  auto entries = MakeEntries(2000);
  auto segment = Segment::FromBuffer(BuildSegment(entries, {}));
  ASSERT_TRUE(segment.ok()) << segment.status();
  EXPECT_GT((*segment)->stats().num_blocks, 1u);
  ExpectReadsAllEntries(**segment, entries);
}

TEST(SegmentV2Test, MmapLoadMatchesBufferedParse) {
  TempDir dir;
  auto entries = MakeEntries(800);
  std::string sealed = BuildSegment(entries, {});
  std::string path = dir.str() + "/t.000001.seg";
  ASSERT_TRUE(WriteFileAtomic(path, sealed).ok());

  auto mapped = Segment::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto buffered = Segment::FromBuffer(sealed);
  ASSERT_TRUE(buffered.ok()) << buffered.status();

  ASSERT_EQ((*mapped)->size(), (*buffered)->size());
  EXPECT_EQ((*mapped)->stats().num_blocks, (*buffered)->stats().num_blocks);
  for (size_t i = 0; i < (*mapped)->size(); ++i) {
    auto a = (*mapped)->Entry(i);
    auto b = (*buffered)->Entry(i);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->key, b->key);
    EXPECT_EQ(a->value, b->value);
    EXPECT_EQ(a->kind, b->kind);
  }
}

TEST(SegmentV2Test, EmptySegmentIsValid) {
  SegmentBuilder builder;
  auto segment = Segment::FromBuffer(builder.Finish());
  ASSERT_TRUE(segment.ok()) << segment.status();
  EXPECT_EQ((*segment)->size(), 0u);
  auto miss = (*segment)->Find("anything");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, nullptr);
}

TEST(SegmentV2Test, AppendAndDeleteKindsSurvive) {
  SegmentBuilder builder;
  ASSERT_TRUE(builder.Add("a", RecordKind::kPut, "base").ok());
  ASSERT_TRUE(builder.Add("b", RecordKind::kAppend, "frag").ok());
  ASSERT_TRUE(builder.Add("c", RecordKind::kDelete, "").ok());
  auto segment = Segment::FromBuffer(builder.Finish());
  ASSERT_TRUE(segment.ok()) << segment.status();
  auto b = (*segment)->Find("b");
  ASSERT_TRUE(b.ok());
  ASSERT_NE(*b, nullptr);
  EXPECT_EQ((*b)->kind, RecordKind::kAppend);
  auto c = (*segment)->Find("c");
  ASSERT_TRUE(c.ok());
  ASSERT_NE(*c, nullptr);
  EXPECT_EQ((*c)->kind, RecordKind::kDelete);
}

// ---------------------------------------------------------------------------
// Corruption fuzzing
// ---------------------------------------------------------------------------

// Reads every entry; true when some access reports corruption.
bool ScanCatchesCorruption(const Segment& segment) {
  for (size_t i = 0; i < segment.size(); ++i) {
    if (!segment.Entry(i).ok()) return true;
  }
  return false;
}

TEST(SegmentV2Test, EveryByteFlipIsDetected) {
  auto entries = MakeEntries(120);  // a few blocks, small enough to fuzz
  std::string sealed = BuildSegment(entries, {});
  for (size_t i = 0; i < sealed.size(); ++i) {
    std::string mutated = sealed;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    auto segment = Segment::FromBuffer(mutated);
    if (!segment.ok()) {
      EXPECT_TRUE(segment.status().IsCorruption()) << "byte " << i;
      continue;
    }
    EXPECT_TRUE(ScanCatchesCorruption(**segment)) << "byte " << i;
  }
}

TEST(SegmentV2Test, EveryTruncationIsDetected) {
  auto entries = MakeEntries(60);
  std::string sealed = BuildSegment(entries, {});
  for (size_t len = 0; len < sealed.size(); ++len) {
    auto segment = Segment::FromBuffer(sealed.substr(0, len));
    if (!segment.ok()) continue;
    EXPECT_TRUE((*segment)->size() == 0 || ScanCatchesCorruption(**segment))
        << "length " << len;
  }
}

TEST(SegmentV2Test, TruncatedFileOnDiskIsRejected) {
  TempDir dir;
  auto entries = MakeEntries(200);
  std::string sealed = BuildSegment(entries, {});
  std::string path = dir.str() + "/t.000001.seg";
  ASSERT_TRUE(WriteFileAtomic(path, sealed.substr(0, sealed.size() / 2)).ok());
  auto segment = Segment::Load(path);
  EXPECT_FALSE(segment.ok());
}

// ---------------------------------------------------------------------------
// Retired codec id
// ---------------------------------------------------------------------------

// Rewrites the codec id of the first block descriptor in a sealed SDSEG2
// segment and re-seals the footer checksum, so only the codec is wrong.
std::string WithFirstBlockCodec(std::string sealed, uint8_t codec) {
  constexpr size_t kTrailer = 8 + 4 + 8;  // index_offset, index_crc, magic
  std::string_view trailer =
      std::string_view(sealed).substr(sealed.size() - kTrailer);
  uint64_t index_offset = 0;
  EXPECT_TRUE(GetFixed64(&trailer, &index_offset));
  const size_t index_end = sealed.size() - kTrailer;
  std::string_view index = std::string_view(sealed).substr(
      index_offset, index_end - index_offset);
  const size_t index_size = index.size();
  uint64_t num_blocks = 0, offset = 0, disk_size = 0;
  uint32_t crc = 0;
  EXPECT_TRUE(GetVarint64(&index, &num_blocks) &&
              GetVarint64(&index, &offset) &&
              GetVarint64(&index, &disk_size) && GetFixed32(&index, &crc));
  EXPECT_GT(num_blocks, 0u);
  const size_t codec_pos = index_offset + (index_size - index.size());
  sealed[codec_pos] = static_cast<char>(codec);
  std::string resealed = sealed.substr(0, index_end);
  PutFixed64(&resealed, index_offset);
  PutFixed32(&resealed,
             Crc32(std::string_view(sealed).substr(
                 index_offset, index_end - index_offset)));
  resealed.append(sealed.substr(index_end + 12));
  return resealed;
}

TEST(SegmentCodecTest, RetiredPostingCodecFailsCleanly) {
  auto entries = MakeEntries(50);
  std::string sealed = BuildSegment(entries, {});
  ASSERT_TRUE(Segment::FromBuffer(WithFirstBlockCodec(sealed, 0)).ok());
  auto segment = Segment::FromBuffer(WithFirstBlockCodec(
      sealed, static_cast<uint8_t>(storage::kRetiredPostingCodec)));
  ASSERT_FALSE(segment.ok());
  EXPECT_TRUE(segment.status().IsCorruption()) << segment.status();
  EXPECT_NE(segment.status().ToString().find("retired codec"),
            std::string::npos)
      << segment.status();
}

// The flat SDSEG1 layout (magic, entries, fixed64 count, fixed32 crc of
// everything before the count) is retired: a file in it is refused with
// Unsupported and a rebuild hint, by the file loader, the buffer parser and
// a database open that finds it in a table directory.
TEST(SegmentV2Test, RetiredSdseg1FileIsUnsupported) {
  std::string v1 = "SDSEG1";
  const uint32_t crc = Crc32(v1);
  PutFixed64(&v1, 0);
  PutFixed32(&v1, crc);

  auto from_buffer = Segment::FromBuffer(v1);
  ASSERT_FALSE(from_buffer.ok());
  EXPECT_TRUE(from_buffer.status().IsUnsupported()) << from_buffer.status();
  EXPECT_NE(from_buffer.status().message().find("rebuild"), std::string::npos)
      << from_buffer.status();

  TempDir dir;
  const std::string path = dir.str() + "/t.000001.seg";
  ASSERT_TRUE(WriteFileAtomic(path, v1).ok());
  auto loaded = Segment::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsUnsupported()) << loaded.status();
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status();

  auto db = storage::Database::Open(dir.str());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsUnsupported()) << db.status();
  EXPECT_NE(db.status().message().find("rebuild"), std::string::npos)
      << db.status();
}

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

TEST(BitpackTest, RoundTripAllWidths) {
  for (uint32_t bits = 0; bits <= 64; ++bits) {
    for (size_t count : {size_t{1}, size_t{7}, size_t{40}, size_t{128}}) {
      std::vector<uint64_t> values;
      uint64_t mask = bits >= 64 ? ~0ull : ((uint64_t{1} << bits) - 1);
      for (size_t i = 0; i < count; ++i) {
        values.push_back((i * 0x9e3779b97f4a7c15ull) & mask);
      }
      values.back() = mask;  // the widest field of the width
      std::string packed;
      BitPacker packer(&packed);
      for (uint64_t v : values) packer.Put(v, bits);
      packer.Finish();
      EXPECT_EQ(packed.size(), (values.size() * bits + 7) / 8);

      // Exactly the packed bytes (every load near the end takes the
      // byte-wise path) and with trailing bytes (the word-wise path).
      for (size_t tail : {size_t{0}, size_t{9}}) {
        std::string input = packed + std::string(tail, '\xa5');
        std::string_view cursor(input);
        std::vector<uint64_t> out(values.size());
        ASSERT_TRUE(UnpackBits(&cursor, values.size(), bits, out.data()))
            << "bits=" << bits << " count=" << count;
        EXPECT_EQ(out, values) << "bits=" << bits << " count=" << count;
        EXPECT_EQ(cursor.size(), tail);
      }
    }
  }
}

TEST(BitpackTest, UnderrunFails) {
  std::string packed;
  BitPacker packer(&packed);
  packer.Put(0x3ff, 10);
  packer.Put(0x155, 10);
  packer.Finish();
  uint64_t out[2] = {0, 0};
  std::string_view cursor(packed);
  ASSERT_TRUE(UnpackBits(&cursor, 1, 10, out));
  EXPECT_EQ(out[0], 0x3ffu);
  std::string_view short_input(packed.data(), 2);
  EXPECT_FALSE(UnpackBits(&short_input, 2, 10, out));
  EXPECT_EQ(short_input.size(), 2u);  // untouched on failure
  std::string_view bad_width(packed);
  EXPECT_FALSE(UnpackBits(&bad_width, 1, 65, out));
}

}  // namespace
}  // namespace seqdet
