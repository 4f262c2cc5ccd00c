// Parameterized property sweep over storage configurations: the same
// randomized workload must match a std::map reference model regardless of
// shard count, flush threshold, WAL usage or persistence mode — and must
// survive a reopen in persistent modes.

#include <filesystem>
#include <map>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace seqdet::storage {
namespace {

namespace fs = std::filesystem;

struct StorageParam {
  size_t shards;
  size_t flush_bytes;
  bool in_memory;
  bool use_wal;
};

std::string ParamName(const ::testing::TestParamInfo<StorageParam>& info) {
  const StorageParam& p = info.param;
  return "shards" + std::to_string(p.shards) + "_flush" +
         std::to_string(p.flush_bytes) +
         (p.in_memory ? "_mem" : "_disk") + (p.use_wal ? "_wal" : "_nowal");
}

class StorageSweepTest : public ::testing::TestWithParam<StorageParam> {
 protected:
  void SetUp() override {
    if (!GetParam().in_memory) {
      dir_ = fs::temp_directory_path() /
             ("seqdet_param_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++));
      fs::create_directories(dir_);
    }
  }
  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  TableOptions Options() const {
    TableOptions options;
    options.memtable_flush_bytes = GetParam().flush_bytes;
    options.in_memory = GetParam().in_memory;
    options.use_wal = GetParam().use_wal && !GetParam().in_memory;
    return options;
  }

  std::unique_ptr<ShardedTable> OpenTable() {
    auto table =
        ShardedTable::Open(dir_.string(), "sweep", GetParam().shards,
                           Options());
    EXPECT_TRUE(table.ok()) << table.status();
    return std::move(table).value();
  }

  fs::path dir_;
  static int counter_;
};

int StorageSweepTest::counter_ = 0;

TEST_P(StorageSweepTest, MatchesReferenceModelUnderRandomWorkload) {
  auto table = OpenTable();
  std::map<std::string, std::string> model;
  Rng rng(1234);
  for (int step = 0; step < 1500; ++step) {
    std::string key =
        std::string("k").append(std::to_string(rng.NextBounded(60)));
    uint64_t op = rng.NextBounded(100);
    if (op < 30) {
      std::string v =
          std::string("p").append(std::to_string(rng.NextBounded(100)));
      ASSERT_TRUE(table->Put(key, v).ok());
      model[key] = v;
    } else if (op < 70) {
      std::string v =
          std::string("+").append(std::to_string(rng.NextBounded(10)));
      ASSERT_TRUE(table->Append(key, v).ok());
      model[key] += v;
    } else if (op < 85) {
      ASSERT_TRUE(table->Delete(key).ok());
      model.erase(key);
    } else if (op < 95) {
      ASSERT_TRUE(table->Flush().ok());
    } else {
      ASSERT_TRUE(table->Compact().ok());
    }
    std::string got;
    Status s = table->Get(key, &got);
    auto it = model.find(key);
    if (it == model.end()) {
      ASSERT_TRUE(s.IsNotFound()) << "step " << step;
    } else {
      ASSERT_TRUE(s.ok()) << "step " << step << ": " << s;
      ASSERT_EQ(got, it->second) << "step " << step;
    }
  }

  // Full-state comparison through the merged scan.
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(table
                  ->Scan("", "",
                         [&](std::string_view k, std::string_view v) {
                           scanned.emplace(std::string(k), std::string(v));
                           return true;
                         })
                  .ok());
  EXPECT_EQ(scanned, model);

  // Persistent modes must reproduce the state after a reopen. Without a
  // WAL only flushed data survives, so flush first.
  if (!GetParam().in_memory) {
    ASSERT_TRUE(table->Flush().ok());
    table.reset();
    auto reopened = OpenTable();
    std::map<std::string, std::string> recovered;
    ASSERT_TRUE(reopened
                    ->Scan("", "",
                           [&](std::string_view k, std::string_view v) {
                             recovered.emplace(std::string(k),
                                               std::string(v));
                             return true;
                           })
                    .ok());
    EXPECT_EQ(recovered, model);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StorageSweepTest,
    ::testing::Values(StorageParam{1, 1u << 20, true, false},
                      StorageParam{4, 1u << 20, true, false},
                      StorageParam{1, 256, true, false},
                      StorageParam{8, 512, true, false},
                      StorageParam{1, 1u << 20, false, true},
                      StorageParam{4, 400, false, true},
                      StorageParam{2, 1u << 20, false, false},
                      StorageParam{3, 333, false, false}),
    ParamName);

}  // namespace
}  // namespace seqdet::storage
