#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "storage/bloom_filter.h"
#include "storage/database.h"
#include "storage/memtable.h"
#include "storage/segment.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace seqdet::storage {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("seqdet_storage_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// MemTable
// ---------------------------------------------------------------------------

TEST(MemTableTest, PutOverwrites) {
  MemTable mem;
  mem.Apply(RecordKind::kPut, "k", "v1");
  mem.Apply(RecordKind::kPut, "k", "v2");
  const auto* e = mem.Find("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, RecordKind::kPut);
  EXPECT_EQ(e->value, "v2");
}

TEST(MemTableTest, AppendsConcatenate) {
  MemTable mem;
  mem.Apply(RecordKind::kAppend, "k", "ab");
  mem.Apply(RecordKind::kAppend, "k", "cd");
  const auto* e = mem.Find("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, RecordKind::kAppend);
  EXPECT_EQ(e->value, "abcd");
}

TEST(MemTableTest, PutThenAppendStaysPut) {
  MemTable mem;
  mem.Apply(RecordKind::kPut, "k", "base");
  mem.Apply(RecordKind::kAppend, "k", "+more");
  const auto* e = mem.Find("k");
  EXPECT_EQ(e->kind, RecordKind::kPut);
  EXPECT_EQ(e->value, "base+more");
}

TEST(MemTableTest, DeleteThenAppendBecomesPut) {
  MemTable mem;
  mem.Apply(RecordKind::kDelete, "k", "");
  mem.Apply(RecordKind::kAppend, "k", "fresh");
  const auto* e = mem.Find("k");
  EXPECT_EQ(e->kind, RecordKind::kPut);
  EXPECT_EQ(e->value, "fresh");
}

TEST(MemTableTest, DeleteShadowsPut) {
  MemTable mem;
  mem.Apply(RecordKind::kPut, "k", "v");
  mem.Apply(RecordKind::kDelete, "k", "");
  EXPECT_EQ(mem.Find("k")->kind, RecordKind::kDelete);
}

TEST(MemTableTest, BytesGrowAndClear) {
  MemTable mem;
  EXPECT_EQ(mem.ApproximateBytes(), 0u);
  mem.Apply(RecordKind::kPut, "key", std::string(100, 'x'));
  EXPECT_GT(mem.ApproximateBytes(), 100u);
  mem.Clear();
  EXPECT_EQ(mem.ApproximateBytes(), 0u);
  EXPECT_TRUE(mem.empty());
}

// ---------------------------------------------------------------------------
// Segment
// ---------------------------------------------------------------------------

TEST(SegmentTest, BuildAndFind) {
  SegmentBuilder builder;
  ASSERT_TRUE(builder.Add("apple", RecordKind::kPut, "1").ok());
  ASSERT_TRUE(builder.Add("banana", RecordKind::kAppend, "2").ok());
  ASSERT_TRUE(builder.Add("cherry", RecordKind::kDelete, "").ok());
  auto segment = Segment::FromBuffer(builder.Finish());
  ASSERT_TRUE(segment.ok()) << segment.status();
  EXPECT_EQ((*segment)->size(), 3u);
  auto e = (*segment)->Find("banana");
  ASSERT_TRUE(e.ok()) << e.status();
  ASSERT_NE(*e, nullptr);
  EXPECT_EQ((*e)->kind, RecordKind::kAppend);
  EXPECT_EQ((*e)->value, "2");
  auto absent = (*segment)->Find("durian");
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(*absent, nullptr);
}

TEST(SegmentTest, RejectsOutOfOrderKeys) {
  SegmentBuilder builder;
  ASSERT_TRUE(builder.Add("b", RecordKind::kPut, "1").ok());
  EXPECT_FALSE(builder.Add("a", RecordKind::kPut, "2").ok());
  EXPECT_FALSE(builder.Add("b", RecordKind::kPut, "dup").ok());
}

TEST(SegmentTest, ChecksumDetectsCorruption) {
  SegmentBuilder builder;
  ASSERT_TRUE(builder.Add("key", RecordKind::kPut, "value").ok());
  std::string buffer = builder.Finish();
  buffer[8] ^= 0x40;
  // SDSEG2 verifies block checksums lazily: the flip may surface at open
  // (index/trailer damage) or at first read of the touched block.
  auto segment = Segment::FromBuffer(buffer);
  if (!segment.ok()) {
    EXPECT_TRUE(segment.status().IsCorruption());
  } else {
    auto e = (*segment)->Find("key");
    ASSERT_FALSE(e.ok());
    EXPECT_TRUE(e.status().IsCorruption());
  }
}

TEST(SegmentTest, RejectsTruncation) {
  SegmentBuilder builder;
  ASSERT_TRUE(builder.Add("key", RecordKind::kPut, "value").ok());
  std::string buffer = builder.Finish();
  EXPECT_FALSE(Segment::FromBuffer(buffer.substr(0, 5)).ok());
}

TEST(SegmentTest, EmptySegmentIsValid) {
  SegmentBuilder builder;
  auto segment = Segment::FromBuffer(builder.Finish());
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ((*segment)->size(), 0u);
}

TEST(SegmentTest, LowerBound) {
  SegmentBuilder builder;
  for (std::string k : {"b", "d", "f"}) {
    ASSERT_TRUE(builder.Add(k, RecordKind::kPut, "v").ok());
  }
  auto segment = Segment::FromBuffer(builder.Finish());
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(*(*segment)->LowerBound("a"), 0u);
  EXPECT_EQ(*(*segment)->LowerBound("b"), 0u);
  EXPECT_EQ(*(*segment)->LowerBound("c"), 1u);
  EXPECT_EQ(*(*segment)->LowerBound("g"), 3u);
}

TEST(SegmentTest, LoadFromDisk) {
  TempDir dir;
  SegmentBuilder builder;
  ASSERT_TRUE(builder.Add("k", RecordKind::kPut, "persisted").ok());
  std::string path = dir.str() + "/t.000001.seg";
  ASSERT_TRUE(WriteFileAtomic(path, builder.Finish()).ok());
  auto segment = Segment::Load(path);
  ASSERT_TRUE(segment.ok()) << segment.status();
  auto e = (*segment)->Find("k");
  ASSERT_TRUE(e.ok()) << e.status();
  ASSERT_NE(*e, nullptr);
  EXPECT_EQ((*e)->value, "persisted");
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(WalTest, RoundTrip) {
  TempDir dir;
  std::string path = dir.str() + "/test.wal";
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Add(RecordKind::kPut, "a", "1").ok());
    ASSERT_TRUE(wal.Add(RecordKind::kAppend, "b", "2").ok());
    ASSERT_TRUE(wal.Add(RecordKind::kDelete, "c", "").ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  std::vector<std::tuple<RecordKind, std::string, std::string>> records;
  size_t replayed = 0;
  ASSERT_TRUE(ReplayWal(path,
                        [&](RecordKind k, std::string_view key,
                            std::string_view value) {
                          records.emplace_back(k, std::string(key),
                                               std::string(value));
                        },
                        &replayed)
                  .ok());
  EXPECT_EQ(replayed, 3u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(std::get<1>(records[0]), "a");
  EXPECT_EQ(std::get<0>(records[2]), RecordKind::kDelete);
}

TEST(WalTest, MissingFileIsEmpty) {
  size_t replayed = 99;
  ASSERT_TRUE(ReplayWal("/nonexistent/path.wal",
                        [](RecordKind, std::string_view, std::string_view) {},
                        &replayed)
                  .ok());
  EXPECT_EQ(replayed, 0u);
}

TEST(WalTest, TornTailTolerated) {
  TempDir dir;
  std::string path = dir.str() + "/torn.wal";
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Add(RecordKind::kPut, "intact", "yes").ok());
    ASSERT_TRUE(wal.Add(RecordKind::kPut, "torn", "half").ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  // Chop the final record's bytes to simulate a crash mid-append.
  auto size = fs::file_size(path);
  fs::resize_file(path, size - 3);
  size_t replayed = 0;
  ASSERT_TRUE(ReplayWal(path,
                        [](RecordKind, std::string_view, std::string_view) {},
                        &replayed)
                  .ok());
  EXPECT_EQ(replayed, 1u);
}

TEST(WalTest, ResetTruncates) {
  TempDir dir;
  std::string path = dir.str() + "/reset.wal";
  WalWriter wal;
  ASSERT_TRUE(wal.Open(path, false).ok());
  ASSERT_TRUE(wal.Add(RecordKind::kPut, "k", "v").ok());
  ASSERT_TRUE(wal.Reset().ok());
  wal.Close();
  size_t replayed = 0;
  ASSERT_TRUE(ReplayWal(path,
                        [](RecordKind, std::string_view, std::string_view) {},
                        &replayed)
                  .ok());
  EXPECT_EQ(replayed, 0u);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TableOptions InMemoryOptions() {
  TableOptions options;
  options.in_memory = true;
  options.use_wal = false;
  return options;
}

TEST(TableTest, PutGetDelete) {
  auto table = Table::Open("", "t", InMemoryOptions());
  ASSERT_TRUE(table.ok());
  Table& t = **table;
  ASSERT_TRUE(t.Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(t.Contains("k"));
  ASSERT_TRUE(t.Delete("k").ok());
  EXPECT_TRUE(t.Get("k", &value).IsNotFound());
}

TEST(TableTest, GetMissingIsNotFound) {
  auto table = Table::Open("", "t", InMemoryOptions());
  std::string value;
  EXPECT_TRUE((*table)->Get("ghost", &value).IsNotFound());
}

TEST(TableTest, RejectsBadName) {
  EXPECT_FALSE(Table::Open("", "bad/name", InMemoryOptions()).ok());
  EXPECT_FALSE(Table::Open("", "", InMemoryOptions()).ok());
  EXPECT_FALSE(Table::Open("", "dots.too", InMemoryOptions()).ok());
}

TEST(TableTest, AppendsFoldAcrossFlushes) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Append("k", "a").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Append("k", "b").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Append("k", "c").ok());  // stays in memtable
  std::string value;
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "abc");
  EXPECT_EQ(t.NumSegments(), 2u);
}

TEST(TableTest, PutShadowsOlderSegments) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Append("k", "old").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Put("k", "new").ok());
  std::string value;
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST(TableTest, DeleteShadowsOlderSegmentsAndAppendsRestart) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Append("k", "old").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Delete("k").ok());
  ASSERT_TRUE(t.Flush().ok());
  std::string value;
  EXPECT_TRUE(t.Get("k", &value).IsNotFound());
  ASSERT_TRUE(t.Append("k", "fresh").ok());
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "fresh");
}

TEST(TableTest, ApplyBatchIsAtomicallyVisible) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  WriteBatch batch;
  batch.Put("x", "1");
  batch.Append("y", "2");
  batch.Delete("z");
  ASSERT_TRUE(t.Apply(batch).ok());
  std::string value;
  EXPECT_TRUE(t.Get("x", &value).ok());
  EXPECT_TRUE(t.Get("y", &value).ok());
}

TEST(TableTest, ScanMergesSourcesInKeyOrder) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Put("b", "2").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Put("a", "1").ok());
  ASSERT_TRUE(t.Put("c", "3").ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(t.Scan("", "",
                     [&](std::string_view k, std::string_view) {
                       keys.emplace_back(k);
                       return true;
                     })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TableTest, ScanRangeAndEarlyStop) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  for (std::string k : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(t.Put(k, "v").ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE(t.Scan("b", "d",
                     [&](std::string_view k, std::string_view) {
                       keys.emplace_back(k);
                       return true;
                     })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"b", "c"}));

  keys.clear();
  ASSERT_TRUE(t.Scan("", "",
                     [&](std::string_view k, std::string_view) {
                       keys.emplace_back(k);
                       return false;  // early stop
                     })
                  .ok());
  EXPECT_EQ(keys.size(), 1u);
}

TEST(TableTest, ScanFoldsAppendsAcrossSegments) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Append("k", "a").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Append("k", "b").ok());
  std::string folded;
  ASSERT_TRUE(t.Scan("", "",
                     [&](std::string_view, std::string_view v) {
                       folded = std::string(v);
                       return true;
                     })
                  .ok());
  EXPECT_EQ(folded, "ab");
}

TEST(TableTest, ScanSkipsDeleted) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Put("a", "1").ok());
  ASSERT_TRUE(t.Put("b", "2").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Delete("a").ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(t.Scan("", "",
                     [&](std::string_view k, std::string_view) {
                       keys.emplace_back(k);
                       return true;
                     })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"b"}));
}

TEST(TableTest, ScanPrefix) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  for (std::string k : {"ab1", "ab2", "ac3", "b"}) {
    ASSERT_TRUE(t.Put(k, "v").ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE(t.ScanPrefix("ab",
                           [&](std::string_view k, std::string_view) {
                             keys.emplace_back(k);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"ab1", "ab2"}));
}

TEST(TableTest, CompactMergesToSingleSegmentAndDropsTombstones) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Append("k", "a").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Append("k", "b").ok());
  ASSERT_TRUE(t.Put("gone", "x").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Delete("gone").ok());
  ASSERT_TRUE(t.Compact().ok());
  EXPECT_EQ(t.NumSegments(), 1u);
  std::string value;
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "ab");
  EXPECT_TRUE(t.Get("gone", &value).IsNotFound());
  // Appends after compaction still fold on the merged base.
  ASSERT_TRUE(t.Append("k", "c").ok());
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "abc");
}

TEST(TableTest, AutoFlushOnThreshold) {
  TableOptions options = InMemoryOptions();
  options.memtable_flush_bytes = 256;
  auto table = Table::Open("", "t", options);
  Table& t = **table;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.Put("key" + std::to_string(i), std::string(32, 'v')).ok());
  }
  EXPECT_GT(t.NumSegments(), 0u);
}

TEST(TableTest, PersistenceAcrossReopen) {
  TempDir dir;
  TableOptions options;  // WAL on, disk mode
  {
    auto table = Table::Open(dir.str(), "t", options);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE((*table)->Put("durable", "yes").ok());
    ASSERT_TRUE((*table)->Append("list", "1").ok());
    ASSERT_TRUE((*table)->Flush().ok());
    ASSERT_TRUE((*table)->Append("list", "2").ok());  // only in WAL
  }
  {
    auto table = Table::Open(dir.str(), "t", options);
    ASSERT_TRUE(table.ok()) << table.status();
    std::string value;
    ASSERT_TRUE((*table)->Get("durable", &value).ok());
    EXPECT_EQ(value, "yes");
    ASSERT_TRUE((*table)->Get("list", &value).ok());
    EXPECT_EQ(value, "12");  // segment + WAL replay
  }
}

TEST(TableTest, ConcurrentAppendsAllLand) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  const int kThreads = 4, kPerThread = 250;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(t.Append("counter", "x").ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string value;
  ASSERT_TRUE(t.Get("counter", &value).ok());
  EXPECT_EQ(value.size(), static_cast<size_t>(kThreads * kPerThread));
}

// Property test: a table behaves like a std::map with append semantics
// under a random operation sequence with interleaved flush/compact.
TEST(TablePropertyTest, MatchesReferenceModel) {
  Rng rng(99);
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  std::map<std::string, std::string> model;
  for (int step = 0; step < 3000; ++step) {
    std::string key =
        std::string("k").append(std::to_string(rng.NextBounded(40)));
    uint64_t op = rng.NextBounded(100);
    if (op < 35) {
      std::string v = "p" + std::to_string(rng.NextBounded(1000));
      ASSERT_TRUE(t.Put(key, v).ok());
      model[key] = v;
    } else if (op < 75) {
      std::string v = "+a" + std::to_string(rng.NextBounded(10));
      ASSERT_TRUE(t.Append(key, v).ok());
      model[key] += v;
    } else if (op < 90) {
      ASSERT_TRUE(t.Delete(key).ok());
      model.erase(key);
    } else if (op < 97) {
      ASSERT_TRUE(t.Flush().ok());
    } else {
      ASSERT_TRUE(t.Compact().ok());
    }
    // Spot-check a random key each step; full check periodically.
    std::string got;
    Status s = t.Get(key, &got);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << "step " << step << " key " << key;
    } else {
      ASSERT_TRUE(s.ok()) << "step " << step << " key " << key;
      EXPECT_EQ(got, it->second) << "step " << step << " key " << key;
    }
  }
  // Final full comparison via scan.
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(t.Scan("", "",
                     [&](std::string_view k, std::string_view v) {
                       scanned.emplace(std::string(k), std::string(v));
                       return true;
                     })
                  .ok());
  EXPECT_EQ(scanned, model);
}

// ---------------------------------------------------------------------------
// BloomFilter
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) {
    bloom.Add("key" + std::to_string(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain("key" + std::to_string(i))) << i;
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) {
    bloom.Add("key" + std::to_string(i));
  }
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain("absent" + std::to_string(i))) ++false_positives;
  }
  EXPECT_LT(false_positives, 500);  // ~1% expected, 5% generous bound
}

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  BloomFilter bloom(0);
  EXPECT_FALSE(bloom.MayContain("anything"));
}

TEST(SegmentTest, BloomShortCircuitsAbsentKeys) {
  SegmentBuilder builder;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(builder
                    .Add(StringPrintf("key%04d", i), RecordKind::kPut, "v")
                    .ok());
  }
  auto segment = Segment::FromBuffer(builder.Finish());
  ASSERT_TRUE(segment.ok());
  EXPECT_TRUE((*segment)->MayContain("key0042"));
  auto hit = (*segment)->Find("key0042");
  ASSERT_TRUE(hit.ok());
  EXPECT_NE(*hit, nullptr);
  // Find of an absent key must agree with the full search regardless of
  // whether the bloom pre-test fires.
  auto miss = (*segment)->Find("nope");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, nullptr);
}

// ---------------------------------------------------------------------------
// Auto compaction
// ---------------------------------------------------------------------------

TEST(TableTest, AutoCompactionBoundsSegmentCount) {
  TableOptions options = InMemoryOptions();
  options.memtable_flush_bytes = 128;
  options.max_segments = 3;
  auto table = Table::Open("", "t", options);
  Table& t = **table;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        t.Put("key" + std::to_string(i % 40), std::string(24, 'v')).ok());
  }
  EXPECT_LE(t.NumSegments(), 3u);
  // Data survives the background merges.
  std::string value;
  ASSERT_TRUE(t.Get("key7", &value).ok());
}

// ---------------------------------------------------------------------------
// RewriteValue
// ---------------------------------------------------------------------------

TEST(TableTest, RewriteValueFoldsAndCommitsAtomically) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Append("k", "ca").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Append("k", "b").ok());
  Status s = t.RewriteValue("k", [](std::string_view current,
                                    std::string* rewritten) {
    // The callback sees the fully folded value (base + fragments).
    EXPECT_EQ(current, "cab");
    rewritten->assign(current);
    std::sort(rewritten->begin(), rewritten->end());
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s;
  std::string value;
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "abc");
  // The rewrite is a Put base: later appends extend it.
  ASSERT_TRUE(t.Append("k", "z").ok());
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "abcz");
}

TEST(TableTest, RewriteValueMissingKeyAndCallbackError) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  auto no_op = [](std::string_view, std::string*) { return Status::OK(); };
  EXPECT_TRUE(t.RewriteValue("ghost", no_op).IsNotFound());
  ASSERT_TRUE(t.Put("k", "v").ok());
  const uint64_t version = t.Version();
  Status s = t.RewriteValue("k", [](std::string_view, std::string*) {
    return Status::Corruption("refused");
  });
  EXPECT_TRUE(s.IsCorruption());
  // A failed rewrite writes nothing and does not bump the version.
  EXPECT_EQ(t.Version(), version);
  std::string value;
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST(TableTest, RewriteValueBumpsVersion) {
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Append("k", "x").ok());
  const uint64_t before = t.Version();
  ASSERT_TRUE(t.RewriteValue("k", [](std::string_view current,
                                     std::string* rewritten) {
                 rewritten->assign(current);
                 return Status::OK();
               }).ok());
  EXPECT_GT(t.Version(), before);
}

TEST(TableTest, RewriteValueSurvivesReopen) {
  TempDir dir;
  TableOptions options;  // WAL on, disk mode
  {
    auto table = Table::Open(dir.str(), "t", options);
    Table& t = **table;
    ASSERT_TRUE(t.Append("k", "3").ok());
    ASSERT_TRUE(t.Append("k", "1").ok());
    ASSERT_TRUE(t.Append("k", "2").ok());
    ASSERT_TRUE(t.RewriteValue("k", [](std::string_view current,
                                       std::string* rewritten) {
                   rewritten->assign(current);
                   std::sort(rewritten->begin(), rewritten->end());
                   return Status::OK();
                 }).ok());
    // No Flush: the fold must be recoverable from the WAL alone.
  }
  auto reopened = Table::Open(dir.str(), "t", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::string value;
  ASSERT_TRUE((*reopened)->Get("k", &value).ok());
  EXPECT_EQ(value, "123");
}

TEST(TableTest, RewriteValueNeverLosesConcurrentAppends) {
  // The lost-update hazard RewriteValue exists to close: appends landing
  // while folds run must all survive into the final folded value.
  auto table = Table::Open("", "t", InMemoryOptions());
  Table& t = **table;
  ASSERT_TRUE(t.Append("k", "s").ok());
  constexpr int kWriters = 4;
  constexpr int kAppendsPerWriter = 500;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&t] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        ASSERT_TRUE(t.Append("k", "x").ok());
      }
    });
  }
  std::thread folder([&t] {
    for (int i = 0; i < 200; ++i) {
      Status s = t.RewriteValue("k", [](std::string_view current,
                                        std::string* rewritten) {
        rewritten->assign(current);
        std::sort(rewritten->begin(), rewritten->end());
        return Status::OK();
      });
      ASSERT_TRUE(s.ok()) << s;
    }
  });
  for (auto& w : writers) w.join();
  folder.join();
  std::string value;
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value.size(), 1u + kWriters * kAppendsPerWriter);
  EXPECT_EQ(std::count(value.begin(), value.end(), 'x'),
            kWriters * kAppendsPerWriter);
}

TEST(ShardedTableTest, RewriteValueRoutesToOwningShard) {
  auto table = ShardedTable::Open("", "t", 4, InMemoryOptions());
  ShardedTable& t = **table;
  for (int i = 0; i < 32; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    ASSERT_TRUE(t.Append(key, "b").ok());
    ASSERT_TRUE(t.Append(key, "a").ok());
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(t.RewriteValue("k" + std::to_string(i),
                               [](std::string_view current,
                                  std::string* rewritten) {
                                 rewritten->assign(current);
                                 std::sort(rewritten->begin(),
                                           rewritten->end());
                                 return Status::OK();
                               })
                    .ok());
  }
  std::string value;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(t.Get("k" + std::to_string(i), &value).ok());
    EXPECT_EQ(value, "ab");
  }
  EXPECT_TRUE(t.RewriteValue("ghost", [](std::string_view, std::string*) {
                 return Status::OK();
               }).IsNotFound());
}

// ---------------------------------------------------------------------------
// ShardedTable
// ---------------------------------------------------------------------------

TEST(ShardedTableTest, RoutesAndReadsBack) {
  auto table = ShardedTable::Open("", "t", 8, InMemoryOptions());
  ASSERT_TRUE(table.ok()) << table.status();
  ShardedTable& t = **table;
  EXPECT_EQ(t.num_shards(), 8u);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.Put(std::string("key").append(std::to_string(i)),
                      std::string("v").append(std::to_string(i)))
                    .ok());
  }
  std::string value;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.Get("key" + std::to_string(i), &value).ok());
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  EXPECT_TRUE(t.Get("ghost", &value).IsNotFound());
  EXPECT_EQ(t.ApproximateEntryCount(), 200u);
}

TEST(ShardedTableTest, ZeroShardsRejected) {
  EXPECT_FALSE(ShardedTable::Open("", "t", 0, InMemoryOptions()).ok());
}

TEST(ShardedTableTest, AppendsFoldPerKey) {
  auto table = ShardedTable::Open("", "t", 4, InMemoryOptions());
  ShardedTable& t = **table;
  ASSERT_TRUE(t.Append("k", "a").ok());
  ASSERT_TRUE(t.Flush().ok());
  ASSERT_TRUE(t.Append("k", "b").ok());
  std::string value;
  ASSERT_TRUE(t.Get("k", &value).ok());
  EXPECT_EQ(value, "ab");
  ASSERT_TRUE(t.Delete("k").ok());
  EXPECT_FALSE(t.Contains("k"));
}

TEST(ShardedTableTest, ApplySplitsBatchAcrossShards) {
  auto table = ShardedTable::Open("", "t", 4, InMemoryOptions());
  ShardedTable& t = **table;
  WriteBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch.Append(std::string("k").append(std::to_string(i)), "x");
  }
  ASSERT_TRUE(t.Apply(batch).ok());
  size_t found = 0;
  for (int i = 0; i < 100; ++i) {
    if (t.Contains(std::string("k").append(std::to_string(i)))) ++found;
  }
  EXPECT_EQ(found, 100u);
}

TEST(ShardedTableTest, ScanMergesShardsInKeyOrder) {
  auto table = ShardedTable::Open("", "t", 4, InMemoryOptions());
  ShardedTable& t = **table;
  for (char c = 'a'; c <= 'j'; ++c) {
    ASSERT_TRUE(t.Put(std::string(1, c), "v").ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE(t.Scan("b", "h",
                     [&](std::string_view k, std::string_view) {
                       keys.emplace_back(k);
                       return true;
                     })
                  .ok());
  ASSERT_EQ(keys.size(), 6u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), "b");
  EXPECT_EQ(keys.back(), "g");
}

TEST(ShardedTableTest, PersistsAcrossReopen) {
  TempDir dir;
  {
    auto table = ShardedTable::Open(dir.str(), "t", 3, TableOptions{});
    ASSERT_TRUE(table.ok()) << table.status();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*table)->Put("key" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE((*table)->Flush().ok());
  }
  {
    auto table = ShardedTable::Open(dir.str(), "t", 3, TableOptions{});
    ASSERT_TRUE(table.ok()) << table.status();
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE((*table)->Contains("key" + std::to_string(i)));
    }
  }
}

TEST(ShardedTableTest, ConcurrentBatchesLand) {
  auto table = ShardedTable::Open("", "t", 8, InMemoryOptions());
  ShardedTable& t = **table;
  const int kThreads = 4, kPerThread = 100;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t, w] {
      WriteBatch batch;
      for (int i = 0; i < kPerThread; ++i) {
        batch.Append("key" + std::to_string(i), std::to_string(w));
      }
      ASSERT_TRUE(t.Apply(batch).ok());
    });
  }
  for (auto& th : threads) th.join();
  std::string value;
  for (int i = 0; i < kPerThread; ++i) {
    ASSERT_TRUE(t.Get("key" + std::to_string(i), &value).ok());
    EXPECT_EQ(value.size(), static_cast<size_t>(kThreads));
  }
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

TEST(DatabaseTest, InMemoryTables) {
  DbOptions options;
  options.table.in_memory = true;
  options.table.use_wal = false;
  auto db = Database::Open("", options);
  ASSERT_TRUE(db.ok()) << db.status();
  auto t = (*db)->GetOrCreateTable("index");
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->Put("k", "v").ok());
  EXPECT_EQ((*db)->GetTable("index"), *t);
  EXPECT_EQ((*db)->GetTable("missing"), nullptr);
  EXPECT_EQ((*db)->TableNames(), std::vector<std::string>{"index"});
}

TEST(DatabaseTest, RequiresDirUnlessInMemory) {
  EXPECT_FALSE(Database::Open("", DbOptions{}).ok());
}

TEST(DatabaseTest, RediscoversTablesOnReopen) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    ASSERT_TRUE(db.ok()) << db.status();
    auto t = (*db)->GetOrCreateTable("alpha");
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Put("k", "v").ok());
    ASSERT_TRUE((*db)->FlushAll().ok());
    auto t2 = (*db)->GetOrCreateTable("beta");
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE((*t2)->Put("x", "y").ok());  // WAL only
  }
  {
    auto db = Database::Open(dir.str());
    ASSERT_TRUE(db.ok()) << db.status();
    auto names = (*db)->TableNames();
    EXPECT_EQ(names, (std::vector<std::string>{"alpha", "beta"}));
    std::string value;
    ASSERT_TRUE((*db)->GetTable("alpha")->Get("k", &value).ok());
    EXPECT_EQ(value, "v");
    ASSERT_TRUE((*db)->GetTable("beta")->Get("x", &value).ok());
    EXPECT_EQ(value, "y");
  }
}

TEST(DatabaseTest, DropTableRemovesFiles) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    auto t = (*db)->GetOrCreateTable("victim");
    ASSERT_TRUE((*t)->Put("k", "v").ok());
    ASSERT_TRUE((*db)->FlushAll().ok());
    ASSERT_TRUE((*db)->DropTable("victim").ok());
    EXPECT_EQ((*db)->GetTable("victim"), nullptr);
    EXPECT_TRUE((*db)->DropTable("victim").IsNotFound());
  }
  auto db = Database::Open(dir.str());
  EXPECT_TRUE((*db)->TableNames().empty());
}

TEST(DatabaseTest, ShardedTableAdoptsDiscoveredShards) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    ASSERT_TRUE(db.ok());
    auto t = (*db)->GetOrCreateShardedTable("logical", 4);
    ASSERT_TRUE(t.ok()) << t.status();
    ASSERT_TRUE((*t)->Put("k", "v").ok());
    ASSERT_TRUE((*db)->FlushAll().ok());
  }
  {
    // Reopen: the shard files are discovered as plain tables first, then
    // adopted into the logical sharded table without double-opening.
    auto db = Database::Open(dir.str());
    ASSERT_TRUE(db.ok());
    auto t = (*db)->GetOrCreateShardedTable("logical", 4);
    ASSERT_TRUE(t.ok()) << t.status();
    std::string value;
    ASSERT_TRUE((*t)->Get("k", &value).ok());
    EXPECT_EQ(value, "v");
    // The physical shards moved out of the plain-table map.
    EXPECT_EQ((*db)->GetTable("logical_s00"), nullptr);
  }
}

TEST(DatabaseTest, ShardedTableCachedAndShardCountChecked) {
  DbOptions options;
  options.table.in_memory = true;
  options.table.use_wal = false;
  auto db = Database::Open("", options);
  auto a = (*db)->GetOrCreateShardedTable("t", 4);
  auto b = (*db)->GetOrCreateShardedTable("t", 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE((*db)->GetOrCreateShardedTable("t", 8).ok());
}

TEST(DatabaseTest, CompactAll) {
  DbOptions options;
  options.table.in_memory = true;
  options.table.use_wal = false;
  auto db = Database::Open("", options);
  auto t = (*db)->GetOrCreateTable("t");
  ASSERT_TRUE((*t)->Append("k", "1").ok());
  ASSERT_TRUE((*t)->Flush().ok());
  ASSERT_TRUE((*t)->Append("k", "2").ok());
  ASSERT_TRUE((*db)->CompactAll().ok());
  EXPECT_EQ((*t)->NumSegments(), 1u);
}

}  // namespace
}  // namespace seqdet::storage
