// Failure injection: corrupted/truncated on-disk state must surface as
// clean Status errors (or be recovered up to the damage), never as crashes
// or silent wrong answers.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "gtest/gtest.h"
#include "index/index_tables.h"
#include "index/sequence_index.h"
#include "log/event_log.h"
#include "storage/database.h"
#include "storage/segment.h"
#include "storage/write_batch.h"

namespace seqdet {
namespace {

namespace fs = std::filesystem;
using storage::Database;
using storage::RecordKind;
using storage::Segment;
using storage::SegmentBuilder;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("seqdet_failure_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

// Returns the first file under `dir` matching `suffix` (by extension).
fs::path FindFile(const fs::path& dir, const std::string& suffix) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().ends_with(suffix)) return entry.path();
  }
  return {};
}

void FlipByteAt(const fs::path& file, size_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(FailureInjectionTest, CorruptSegmentBodyDetectedOnReopen) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    ASSERT_TRUE(db.ok());
    auto table = (*db)->GetOrCreateTable("victim");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Put("key", "value").ok());
    ASSERT_TRUE((*table)->Flush().ok());
  }
  fs::path segment = FindFile(dir.path(), ".seg");
  ASSERT_FALSE(segment.empty());
  FlipByteAt(segment, 10);  // inside the entry body

  // Segments check block checksums on first access, so body damage may
  // surface at open or at the first read touching the block — either way
  // it must be Corruption, never wrong data.
  auto db = Database::Open(dir.str());
  if (!db.ok()) {
    EXPECT_TRUE(db.status().IsCorruption()) << db.status();
  } else {
    auto table = (*db)->GetOrCreateTable("victim");
    ASSERT_TRUE(table.ok());
    std::string value;
    Status s = (*table)->Get("key", &value);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(s.IsCorruption()) << s;
  }
}

TEST(FailureInjectionTest, CorruptSegmentMagicDetected) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    auto table = (*db)->GetOrCreateTable("victim");
    ASSERT_TRUE((*table)->Put("key", "value").ok());
    ASSERT_TRUE((*table)->Flush().ok());
  }
  fs::path segment = FindFile(dir.path(), ".seg");
  FlipByteAt(segment, 0);  // magic
  auto db = Database::Open(dir.str());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
}

TEST(FailureInjectionTest, TruncatedSegmentDetected) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    auto table = (*db)->GetOrCreateTable("victim");
    ASSERT_TRUE((*table)->Put("key", std::string(1000, 'v')).ok());
    ASSERT_TRUE((*table)->Flush().ok());
  }
  fs::path segment = FindFile(dir.path(), ".seg");
  fs::resize_file(segment, fs::file_size(segment) / 2);
  auto db = Database::Open(dir.str());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
}

TEST(FailureInjectionTest, TornWalTailRecoversPrefix) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    auto table = (*db)->GetOrCreateTable("t");
    ASSERT_TRUE((*table)->Put("committed", "yes").ok());
    ASSERT_TRUE((*table)->Put("torn", "half").ok());
    // No flush: both records only exist in the WAL.
  }
  fs::path wal = FindFile(dir.path(), ".wal");
  ASSERT_FALSE(wal.empty());
  fs::resize_file(wal, fs::file_size(wal) - 4);

  auto db = Database::Open(dir.str());
  ASSERT_TRUE(db.ok()) << db.status();
  storage::Table* table = (*db)->GetTable("t");
  ASSERT_NE(table, nullptr);
  std::string value;
  EXPECT_TRUE(table->Get("committed", &value).ok());
  EXPECT_TRUE(table->Get("torn", &value).IsNotFound());
}

TEST(FailureInjectionTest, CorruptWalRecordStopsReplayCleanly) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    auto table = (*db)->GetOrCreateTable("t");
    ASSERT_TRUE((*table)->Put("a", "1").ok());
    ASSERT_TRUE((*table)->Put("b", "2").ok());
    ASSERT_TRUE((*table)->Put("c", "3").ok());
  }
  fs::path wal = FindFile(dir.path(), ".wal");
  // Flip a byte inside the second record's payload; replay keeps "a" and
  // drops everything from the damage onward.
  FlipByteAt(wal, fs::file_size(wal) / 2);
  auto db = Database::Open(dir.str());
  ASSERT_TRUE(db.ok()) << db.status();
  storage::Table* table = (*db)->GetTable("t");
  std::string value;
  EXPECT_TRUE(table->Get("a", &value).ok());
  EXPECT_TRUE(table->Get("c", &value).IsNotFound());
}

TEST(FailureInjectionTest, CorruptIndexMetaSurfacesError) {
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    index::IndexOptions options;
    options.num_threads = 1;
    auto index = index::SequenceIndex::Open(db->get(), options);
    ASSERT_TRUE(index.ok());
    eventlog::EventLog log;
    log.Append(1, "A", 1);
    log.Append(1, "B", 2);
    log.SortAllTraces();
    ASSERT_TRUE((*index)->Update(log).ok());
    ASSERT_TRUE((*index)->Flush().ok());
  }
  // Damage the meta table's segment.
  fs::path meta_segment;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    std::string name = entry.path().filename().string();
    if (name.starts_with("meta.") && name.ends_with(".seg")) {
      meta_segment = entry.path();
    }
  }
  ASSERT_FALSE(meta_segment.empty());
  FlipByteAt(meta_segment, 12);
  // With SDSEG2 the damage is inside a lazily-checked block, so it may
  // pass Database::Open and must then fail when SequenceIndex reads its
  // meta keys.
  auto db = Database::Open(dir.str());
  if (db.ok()) {
    index::IndexOptions options;
    options.num_threads = 1;
    auto index = index::SequenceIndex::Open(db->get(), options);
    EXPECT_FALSE(index.ok());
  }
}

TEST(FailureInjectionTest, StaleWalAfterFlushCrashIsNotReplayed) {
  // Crash window: the memtable flushed into a segment but the process died
  // before the WAL rotation removed the old log. Replaying that log would
  // double-apply the appends; recovery must recognize it as stale by its
  // generation id and discard it.
  TempDir dir;
  fs::path stale_wal;
  std::string saved_wal_bytes;
  {
    auto db = Database::Open(dir.str());
    auto table = (*db)->GetOrCreateTable("t");
    storage::WriteBatch batch;  // Apply flushes the WAL to the OS
    batch.Append("k", "once");
    ASSERT_TRUE((*table)->Apply(batch).ok());
    stale_wal = FindFile(dir.path(), ".wal");
    ASSERT_FALSE(stale_wal.empty());
    {
      std::ifstream in(stale_wal, std::ios::binary);
      saved_wal_bytes.assign(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(saved_wal_bytes.empty());
    ASSERT_TRUE((*table)->Flush().ok());
  }
  // Re-materialize the pre-flush WAL, simulating a crash before rotation
  // finished deleting it.
  {
    std::ofstream out(stale_wal, std::ios::binary);
    out.write(saved_wal_bytes.data(),
              static_cast<std::streamsize>(saved_wal_bytes.size()));
  }
  auto db = Database::Open(dir.str());
  ASSERT_TRUE(db.ok()) << db.status();
  std::string value;
  ASSERT_TRUE((*db)->GetTable("t")->Get("k", &value).ok());
  EXPECT_EQ(value, "once");  // not "onceonce"
}

TEST(FailureInjectionTest, PostCompactionWritesSurviveReopen) {
  // Compaction reuses the next segment id; writes after a compaction must
  // land in a WAL generation that recovery replays.
  TempDir dir;
  {
    auto db = Database::Open(dir.str());
    auto table = (*db)->GetOrCreateTable("t");
    ASSERT_TRUE((*table)->Append("k", "a").ok());
    ASSERT_TRUE((*table)->Flush().ok());
    ASSERT_TRUE((*table)->Append("k", "b").ok());
    ASSERT_TRUE((*table)->Compact().ok());
    ASSERT_TRUE((*table)->Append("k", "c").ok());  // WAL only
  }
  auto db = Database::Open(dir.str());
  ASSERT_TRUE(db.ok()) << db.status();
  std::string value;
  ASSERT_TRUE((*db)->GetTable("t")->Get("k", &value).ok());
  EXPECT_EQ(value, "abc");
}

TEST(FailureInjectionTest, SegmentBuilderOutputSurvivesRoundTripFuzz) {
  // Property: flipping any single byte of a sealed segment either still
  // decodes to the same entries (impossible given the checksum) or fails
  // with Corruption — never crashes, never returns different data.
  SegmentBuilder builder;
  ASSERT_TRUE(builder.Add("alpha", RecordKind::kPut, "1").ok());
  ASSERT_TRUE(builder.Add("beta", RecordKind::kAppend, "22").ok());
  ASSERT_TRUE(builder.Add("gamma", RecordKind::kDelete, "").ok());
  std::string sealed = builder.Finish();
  for (size_t i = 0; i < sealed.size(); ++i) {
    std::string mutated = sealed;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    auto segment = Segment::FromBuffer(mutated);
    if (!segment.ok()) continue;
    // SDSEG2 defers block checksum verification to first access; a flip
    // that survives open must still be caught when the block is read.
    bool caught = false;
    for (size_t j = 0; j < (*segment)->size() && !caught; ++j) {
      caught = !(*segment)->Entry(j).ok();
    }
    EXPECT_TRUE(caught) << "byte " << i;
  }
}

TEST(FailureInjectionTest, MissingSegmentFileFailsToOpen) {
  EXPECT_FALSE(Segment::Load("/nonexistent/file.seg").ok());
}

TEST(FailureInjectionTest, EmptyDirectoryOpensCleanly) {
  TempDir dir;
  auto db = Database::Open(dir.str());
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->TableNames().empty());
}

TEST(FailureInjectionTest, UnwritableDirectoryReported) {
  auto db = Database::Open("/proc/definitely/not/writable");
  EXPECT_FALSE(db.ok());
}

// ---------------------------------------------------------------------------
// Fold crash safety: a fold interrupted at any per-key commit
// boundary (clean abort via the pace callback, or a hard SIGKILL) must
// leave an index that reopens, passes CheckConsistency, and answers
// queries identically to a pristine index built from the same log.
// ---------------------------------------------------------------------------

eventlog::EventLog FoldCrashLog() {
  datagen::RandomLogConfig config;
  config.num_traces = 20;
  config.max_events_per_trace = 20;
  config.num_activities = 6;
  config.seed = 99;
  config.mean_gap = 3;
  return datagen::GenerateRandomLog(config);
}

/// Per-pair postings of `index` for every activity pair, sorted — the
/// comparison key for "two indexes answer identically".
std::vector<std::vector<index::PairOccurrence>> AllPairPostings(
    index::SequenceIndex* index) {
  std::vector<std::vector<index::PairOccurrence>> all;
  size_t n = index->dictionary().size();
  for (eventlog::ActivityId a = 0; a < n; ++a) {
    for (eventlog::ActivityId b = 0; b < n; ++b) {
      auto postings = index->GetPairPostings({a, b});
      EXPECT_TRUE(postings.ok()) << postings.status();
      std::sort(postings->begin(), postings->end());
      all.push_back(std::move(*postings));
    }
  }
  return all;
}

/// Pristine reference: the same log indexed into a fresh in-memory index.
std::vector<std::vector<index::PairOccurrence>> ReferencePostings(
    const eventlog::EventLog& log) {
  storage::DbOptions db_options;
  db_options.table.in_memory = true;
  db_options.table.use_wal = false;
  auto db = std::move(Database::Open("", db_options)).value();
  index::IndexOptions options;
  options.num_threads = 1;
  auto index = std::move(index::SequenceIndex::Open(db.get(), options))
                   .value();
  EXPECT_TRUE(index->Update(log).ok());
  return AllPairPostings(index.get());
}

TEST(FoldCrashTest, AbortedIncrementalFoldReopensConsistent) {
  TempDir dir;
  eventlog::EventLog log = FoldCrashLog();
  auto reference = ReferencePostings(log);
  {
    auto db = Database::Open(dir.str());
    ASSERT_TRUE(db.ok());
    index::IndexOptions options;
    options.num_threads = 1;
    auto index = index::SequenceIndex::Open(db->get(), options);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Update(log).ok());
    ASSERT_TRUE((*index)->Flush().ok());
    // Abort partway: some keys committed folded (each commit WAL-durable),
    // the rest keep their fragment piles — the on-disk state after a crash
    // at that commit boundary.
    index::FoldStats stats;
    Status aborted = (*index)->FoldPostings(
        &stats, [](const index::FoldStats& fs) {
          return fs.keys_folded >= 5 ? Status::Aborted("injected crash")
                                     : Status::OK();
        });
    ASSERT_TRUE(aborted.IsAborted()) << aborted;
    ASSERT_GE(stats.keys_folded, 5u);
    // No Flush: durability must come from the per-key WAL writes alone.
  }
  auto db = Database::Open(dir.str());
  ASSERT_TRUE(db.ok()) << db.status();
  index::IndexOptions options;
  options.num_threads = 1;
  auto index = index::SequenceIndex::Open(db->get(), options);
  ASSERT_TRUE(index.ok());
  auto report = (*index)->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->violations.front();
  EXPECT_EQ(AllPairPostings(index->get()), reference);
  // Finishing the fold later yields the same answers again.
  ASSERT_TRUE((*index)->FoldPostings().ok());
  EXPECT_EQ(AllPairPostings(index->get()), reference);
}

TEST(FoldCrashTest, SigkillMidFoldReopensConsistent) {
  TempDir dir;
  eventlog::EventLog log = FoldCrashLog();
  auto reference = ReferencePostings(log);
  // Build the fragmented on-disk index in the parent (deterministic), then
  // let a child process die by SIGKILL in the middle of a fold pass — no
  // destructors, no flush, exactly a power-cut at a commit boundary.
  {
    auto db = Database::Open(dir.str());
    ASSERT_TRUE(db.ok());
    index::IndexOptions options;
    options.num_threads = 1;
    auto index = index::SequenceIndex::Open(db->get(), options);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Update(log).ok());
    ASSERT_TRUE((*index)->Flush().ok());
  }
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: fold until the 5th key commit, then vanish.
    auto db = Database::Open(dir.str());
    if (!db.ok()) _exit(3);
    index::IndexOptions options;
    options.num_threads = 1;
    auto index = index::SequenceIndex::Open(db->get(), options);
    if (!index.ok()) _exit(4);
    (void)(*index)->FoldPostings(
        nullptr, [](const index::FoldStats& fs) {
          if (fs.keys_folded >= 5) kill(getpid(), SIGKILL);
          return Status::OK();
        });
    _exit(5);  // not reached if the kill landed
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited " << wstatus;
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  auto db = Database::Open(dir.str());
  ASSERT_TRUE(db.ok()) << db.status();
  index::IndexOptions options;
  options.num_threads = 1;
  auto index = index::SequenceIndex::Open(db->get(), options);
  ASSERT_TRUE(index.ok()) << index.status();
  auto report = (*index)->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->violations.front();
  EXPECT_EQ(AllPairPostings(index->get()), reference);
}

}  // namespace
}  // namespace seqdet
