// Durability unit tests: superblock double-buffering (torn-slot recovery),
// WAL framing round trips, torn-tail truncation, the WAL's page layout (a
// commit that does not fit the tail page starts on the next page; a torn
// skip-commit replays only the acked prefix), the sticky failure model
// under RLIMIT_FSIZE fault injection, log reset, and the engine-level ack
// contract (a failed group commit fails the group's write tickets).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"
#include "storage/superblock.h"
#include "storage/wal.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::FileSizeLimit;
using nblb::testing::TempFile;

// ---- Superblock -------------------------------------------------------------

SuperblockData SampleSb(uint64_t version) {
  SuperblockData sb;
  sb.version = version;
  sb.checkpoint_lsn = version * 100;
  sb.page_size = 4096;
  sb.num_pages = 17;
  sb.heap_first_page = 2;
  sb.btree_meta_page = 5;
  sb.clean_shutdown = (version % 2) == 0;
  sb.reuse_free_slots = true;
  sb.enable_index_cache = false;
  sb.key_columns = {0};
  sb.cached_columns = {2, 3};
  sb.columns = {{"id", TypeId::kInt64, 0},
                {"title", TypeId::kVarchar, 48},
                {"score", TypeId::kInt64, 0},
                {"flags", TypeId::kInt32, 0}};
  return sb;
}

TEST(SuperblockTest, MissingFileIsNotFound) {
  TempFile file("sb_missing");
  auto read = Superblock::Read(Superblock::PathFor(file.path()));
  EXPECT_TRUE(read.status().IsNotFound());
}

TEST(SuperblockTest, RoundTripAllFields) {
  TempFile file("sb_rt");
  const std::string sb_path = Superblock::PathFor(file.path());
  const SuperblockData in = SampleSb(3);
  ASSERT_OK(Superblock::Write(sb_path, in));
  ASSERT_OK_AND_ASSIGN(SuperblockData out, Superblock::Read(sb_path));
  EXPECT_EQ(out.version, in.version);
  EXPECT_EQ(out.checkpoint_lsn, in.checkpoint_lsn);
  EXPECT_EQ(out.page_size, in.page_size);
  EXPECT_EQ(out.num_pages, in.num_pages);
  EXPECT_EQ(out.heap_first_page, in.heap_first_page);
  EXPECT_EQ(out.btree_meta_page, in.btree_meta_page);
  EXPECT_EQ(out.clean_shutdown, in.clean_shutdown);
  EXPECT_EQ(out.reuse_free_slots, in.reuse_free_slots);
  EXPECT_EQ(out.enable_index_cache, in.enable_index_cache);
  EXPECT_EQ(out.key_columns, in.key_columns);
  EXPECT_EQ(out.cached_columns, in.cached_columns);
  ASSERT_EQ(out.columns.size(), in.columns.size());
  for (size_t i = 0; i < in.columns.size(); ++i) {
    EXPECT_EQ(out.columns[i].name, in.columns[i].name);
    EXPECT_EQ(out.columns[i].type, in.columns[i].type);
    EXPECT_EQ(out.columns[i].length, in.columns[i].length);
  }
  std::remove(sb_path.c_str());
}

TEST(SuperblockTest, HighestValidVersionWins) {
  TempFile file("sb_versions");
  const std::string sb_path = Superblock::PathFor(file.path());
  ASSERT_OK(Superblock::Write(sb_path, SampleSb(4)));
  ASSERT_OK(Superblock::Write(sb_path, SampleSb(5)));  // other slot
  ASSERT_OK_AND_ASSIGN(SuperblockData out, Superblock::Read(sb_path));
  EXPECT_EQ(out.version, 5u);
  std::remove(sb_path.c_str());
}

TEST(SuperblockTest, TornSlotFallsBackToPreviousVersion) {
  TempFile file("sb_torn");
  const std::string sb_path = Superblock::PathFor(file.path());
  ASSERT_OK(Superblock::Write(sb_path, SampleSb(6)));  // slot 0
  ASSERT_OK(Superblock::Write(sb_path, SampleSb(7)));  // slot 1
  // Tear version 7's slot: scribble over a byte mid-slot. The reader must
  // reject it on CRC and fall back to version 6 in the other slot.
  {
    std::fstream f(sb_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(4096 + 40);
    char junk = '\xa5';
    f.write(&junk, 1);
  }
  ASSERT_OK_AND_ASSIGN(SuperblockData out, Superblock::Read(sb_path));
  EXPECT_EQ(out.version, 6u);
  std::remove(sb_path.c_str());
}

TEST(SuperblockTest, BothSlotsCorruptIsCorruption) {
  TempFile file("sb_corrupt");
  const std::string sb_path = Superblock::PathFor(file.path());
  {
    std::ofstream f(sb_path, std::ios::binary);
    std::string junk(8192, '\x5a');
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  auto read = Superblock::Read(sb_path);
  EXPECT_TRUE(read.status().IsCorruption()) << read.status().ToString();
  std::remove(sb_path.c_str());
}

// ---- WAL --------------------------------------------------------------------

WalOptions SmallWal() {
  WalOptions wo;
  wo.page_size = 4096;
  return wo;
}

struct ReplayedRecord {
  uint64_t lsn;
  Wal::Op op;
  uint64_t key;
  std::string payload;
};

std::vector<ReplayedRecord> Drain(const Wal& wal, uint64_t from_lsn = 0) {
  std::vector<ReplayedRecord> out;
  EXPECT_OK(wal.Replay(from_lsn, [&](const Wal::Record& rec) {
    out.push_back({rec.lsn, rec.op, rec.key,
                   std::string(rec.payload.data(), rec.payload.size())});
    return Status::OK();
  }));
  return out;
}

TEST(WalTest, AppendCommitReplayRoundTrip) {
  TempFile file("wal_rt");
  const std::string wal_path = Wal::PathFor(file.path());
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    EXPECT_EQ(wal->next_lsn(), 1u);
    EXPECT_EQ(wal->durable_lsn(), 0u);
    for (uint64_t k = 0; k < 10; ++k) {
      const std::string payload = "row-" + std::to_string(k);
      ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                           wal->Append(Wal::Op::kPut, k, Slice(payload)));
      EXPECT_EQ(lsn, k + 1);
    }
    ASSERT_OK_AND_ASSIGN(uint64_t del_lsn,
                         wal->Append(Wal::Op::kDelete, 3, Slice()));
    EXPECT_EQ(del_lsn, 11u);
    EXPECT_TRUE(wal->HasPending());
    ASSERT_OK(wal->Commit());
    EXPECT_FALSE(wal->HasPending());
    EXPECT_EQ(wal->durable_lsn(), 11u);
  }
  // Fresh Wal over the same file: the scan must find all 11 records.
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
  EXPECT_EQ(wal->durable_lsn(), 11u);
  EXPECT_EQ(wal->next_lsn(), 12u);
  auto records = Drain(*wal);
  ASSERT_EQ(records.size(), 11u);
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(records[k].lsn, k + 1);
    EXPECT_EQ(records[k].op, Wal::Op::kPut);
    EXPECT_EQ(records[k].key, k);
    EXPECT_EQ(records[k].payload, "row-" + std::to_string(k));
  }
  EXPECT_EQ(records[10].op, Wal::Op::kDelete);
  EXPECT_EQ(records[10].key, 3u);
  // from_lsn filters strictly.
  EXPECT_EQ(Drain(*wal, 11).size(), 0u);
  EXPECT_EQ(Drain(*wal, 5).size(), 6u);
  std::remove(wal_path.c_str());
}

TEST(WalTest, MultiCommitSpansPages) {
  TempFile file("wal_pages");
  const std::string wal_path = Wal::PathFor(file.path());
  // Payloads sized so many commits cross page boundaries mid-record and the
  // tail-page rewrite logic is exercised on every commit.
  const std::string payload(700, 'p');
  size_t total = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    for (int commit = 0; commit < 20; ++commit) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_OK(
            wal->Append(Wal::Op::kPut, total++, Slice(payload)).status());
      }
      ASSERT_OK(wal->Commit());
    }
  }
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
  auto records = Drain(*wal);
  ASSERT_EQ(records.size(), total);
  for (size_t i = 0; i < total; ++i) {
    EXPECT_EQ(records[i].key, i);
    EXPECT_EQ(records[i].payload, payload);
  }
  std::remove(wal_path.c_str());
}

TEST(WalTest, TornTailIsTruncatedAtFirstBadCrc) {
  TempFile file("wal_torn");
  const std::string wal_path = Wal::PathFor(file.path());
  uint64_t bytes_after_5 = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    for (uint64_t k = 0; k < 5; ++k) {
      ASSERT_OK(wal->Append(Wal::Op::kPut, k, Slice("aaaa")).status());
    }
    ASSERT_OK(wal->Commit());
    bytes_after_5 = wal->durable_bytes();
    for (uint64_t k = 5; k < 8; ++k) {
      ASSERT_OK(wal->Append(Wal::Op::kPut, k, Slice("bbbb")).status());
    }
    ASSERT_OK(wal->Commit());
  }
  // Tear the 6th record: flip one payload byte so its CRC no longer
  // matches. The scan must deliver records 1..5 and truncate there —
  // records 7..8 are unreachable past the tear, exactly like a torn write.
  {
    std::fstream f(wal_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(bytes_after_5) + 10);
    char junk = '\x3c';
    f.write(&junk, 1);
  }
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
  auto records = Drain(*wal);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.back().lsn, 5u);
  EXPECT_EQ(wal->durable_lsn(), 5u);
  EXPECT_EQ(wal->durable_bytes(), bytes_after_5);
  // The truncated log keeps working: new appends continue the sequence.
  ASSERT_OK(wal->Append(Wal::Op::kPut, 99, Slice("cc")).status());
  ASSERT_OK(wal->Commit());
  EXPECT_EQ(wal->durable_lsn(), 6u);
  std::remove(wal_path.c_str());
}

TEST(WalTest, ResetReclaimsLogAndKeepsLsnSequence) {
  TempFile file("wal_reset");
  const std::string wal_path = Wal::PathFor(file.path());
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
  for (uint64_t k = 0; k < 6; ++k) {
    ASSERT_OK(wal->Append(Wal::Op::kPut, k, Slice("xy")).status());
  }
  ASSERT_OK(wal->Commit());
  EXPECT_GT(wal->durable_bytes(), 0u);
  ASSERT_OK(wal->Reset());
  EXPECT_EQ(wal->durable_bytes(), 0u);
  EXPECT_EQ(Drain(*wal).size(), 0u);
  // LSNs never restart — recovery relies on monotonicity across resets.
  ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                       wal->Append(Wal::Op::kPut, 7, Slice("z")));
  EXPECT_EQ(lsn, 7u);
  ASSERT_OK(wal->Commit());
  auto records = Drain(*wal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 7u);
  std::remove(wal_path.c_str());
}

TEST(WalTest, OpenRejectsAPageSmallerThan512Bytes) {
  TempFile file("wal_tiny_page");
  WalOptions wo;
  wo.page_size = 0;
  auto opened = Wal::Open(Wal::PathFor(file.path()), wo);
  EXPECT_TRUE(opened.status().IsInvalidArgument())
      << opened.status().ToString();
}

// ---- Layout: one page per group commit ---------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool AllZero(const std::string& bytes, size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    if (bytes[i] != '\0') return false;
  }
  return true;
}

/// Bytes a record with a payload of `n` bytes takes in the log.
constexpr size_t FrameBytes(size_t n) { return 8 + 21 + n; }

/// The wal.* counters of `wal`, read through a registry.
MetricsSnapshot WalCounters(const Wal& wal) {
  MetricsRegistry registry;
  wal.RegisterMetrics(&registry, "wal.");
  return registry.Snapshot();
}

TEST(WalLayoutTest, CommitThatDoesNotFitTheTailPageStartsOnTheNextPage) {
  TempFile file("wal_layout");
  const std::string wal_path = Wal::PathFor(file.path());
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
  // 3,000 B fill most of page 0.
  ASSERT_OK(wal->Append(Wal::Op::kPut, 1, Slice(std::string(2971, 'a')))
                .status());
  ASSERT_OK(wal->Commit());
  ASSERT_EQ(wal->durable_bytes(), 3000u);
  // 500 B fit the 1,096 B left: they start at the tail.
  ASSERT_OK(wal->Append(Wal::Op::kPut, 2, Slice(std::string(471, 'b')))
                .status());
  ASSERT_OK(wal->Commit());
  ASSERT_EQ(wal->durable_bytes(), 3500u);
  // 1,200 B do not fit the 596 B left: they start at page 1.
  ASSERT_OK(wal->Append(Wal::Op::kPut, 3, Slice(std::string(571, 'c')))
                .status());
  ASSERT_OK(wal->Append(Wal::Op::kPut, 4, Slice(std::string(571, 'd')))
                .status());
  ASSERT_OK(wal->Commit());
  EXPECT_EQ(wal->durable_bytes(), 4096u + 1200u);

  const std::string log = ReadFile(wal_path);
  ASSERT_EQ(log.size(), 2 * 4096u);
  EXPECT_TRUE(AllZero(log, 3500, 4096)) << "the skipped gap reads zero";
  EXPECT_EQ(DecodeFixed32(log.data() + 4096), 21u + 571u)
      << "the third commit's first frame starts page 1";
  EXPECT_TRUE(AllZero(log, 4096 + 1200, log.size()));

  const MetricsSnapshot m = WalCounters(*wal);
  EXPECT_EQ(m.counters.at("wal.commits"), 3u);
  EXPECT_EQ(m.counters.at("wal.commit_pages"), 3u);

  auto records = Drain(*wal);
  ASSERT_EQ(records.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
    EXPECT_EQ(records[i].key, i + 1);
  }
  std::remove(wal_path.c_str());
}

TEST(WalLayoutTest, CommitsOfUpToAPageWriteOnePageEachAndReplayInOrder) {
  TempFile file("wal_one_page");
  const std::string wal_path = Wal::PathFor(file.path());
  Rng rng(28);
  std::vector<ReplayedRecord> acked;
  uint64_t commits = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    for (int c = 0; c < 300; ++c) {
      // 1-8 records of 0-900 B, as many as fit one page.
      size_t bytes = 0;
      const int n = 1 + static_cast<int>(rng.Uniform(8));
      for (int i = 0; i < n; ++i) {
        const std::string payload = rng.NextString(rng.Uniform(901));
        if (bytes + FrameBytes(payload.size()) > 4096) break;
        bytes += FrameBytes(payload.size());
        const uint64_t key = rng.Uniform(1000);
        ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                             wal->Append(Wal::Op::kPut, key, Slice(payload)));
        acked.push_back({lsn, Wal::Op::kPut, key, payload});
      }
      if (rng.Uniform(4) == 0) {
        const uint64_t key = rng.Uniform(1000);
        if (bytes + FrameBytes(0) <= 4096) {
          ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                               wal->Append(Wal::Op::kDelete, key, Slice()));
          acked.push_back({lsn, Wal::Op::kDelete, key, ""});
        }
      }
      ASSERT_OK(wal->Commit());
      ++commits;
    }
    const MetricsSnapshot m = WalCounters(*wal);
    EXPECT_EQ(m.counters.at("wal.commits"), commits);
    EXPECT_EQ(m.counters.at("wal.commit_pages"), commits);
  }
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
  auto records = Drain(*wal);
  ASSERT_EQ(records.size(), acked.size());
  for (size_t i = 0; i < acked.size(); ++i) {
    EXPECT_EQ(records[i].lsn, acked[i].lsn);
    EXPECT_EQ(records[i].op, acked[i].op);
    EXPECT_EQ(records[i].key, acked[i].key);
    EXPECT_EQ(records[i].payload, acked[i].payload);
  }
  EXPECT_EQ(wal->durable_lsn(), acked.back().lsn);
  std::remove(wal_path.c_str());
}

TEST(WalLayoutTest, ReopenOverATornSkipCommitReplaysOnlyTheAckedPrefix) {
  TempFile file("wal_torn_skip");
  const std::string wal_path = Wal::PathFor(file.path());
  const std::string big(1500, 'x');
  // A log whose page 1 starts with the record that follows the acked
  // prefix (LSN 3): the stale page a torn skip-commit can leave behind.
  std::string stale_page;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    for (uint64_t k = 1; k <= 2; ++k) {
      ASSERT_OK(wal->Append(Wal::Op::kPut, k, Slice(big)).status());
    }
    ASSERT_OK(wal->Commit());
    ASSERT_OK(wal->Append(Wal::Op::kPut, 3, Slice(big)).status());
    ASSERT_OK(wal->Append(Wal::Op::kPut, 4, Slice(big)).status());
    ASSERT_OK(wal->Commit());
    const std::string log = ReadFile(wal_path);
    ASSERT_EQ(log.size(), 2 * 4096u);
    stale_page = log.substr(4096);
  }
  // The torn state: the acked page 0 (LSNs 1-2), garbage where the next
  // commit's new page was being written, then the stale page.
  const std::string acked_page = ReadFile(wal_path).substr(0, 4096);
  Rng rng(2011);
  const std::string torn = acked_page + rng.NextString(4096) + stale_page;
  WriteFile(wal_path, torn);
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    auto records = Drain(*wal);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records.back().lsn, 2u);
    EXPECT_EQ(wal->durable_lsn(), 2u);
    EXPECT_EQ(wal->next_lsn(), 3u);
  }
  EXPECT_EQ(ReadFile(wal_path), torn) << "an open that only replays writes";

  // Later commits over the torn tail: one that fits the tail page, then
  // one that does not. Both must replay after another reopen, and the
  // stale page must not.
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    ASSERT_OK(wal->Append(Wal::Op::kPut, 30, Slice("fits")).status());
    ASSERT_OK(wal->Commit());
    const uint64_t tail = wal->durable_bytes();
    const std::string log = ReadFile(wal_path);
    ASSERT_EQ(log.size(), 4096u) << "the pages after the tail page go";
    EXPECT_TRUE(AllZero(log, tail, log.size()));
    ASSERT_OK(wal->Append(Wal::Op::kPut, 40, Slice(big)).status());
    ASSERT_OK(wal->Append(Wal::Op::kPut, 41, Slice(big)).status());
    ASSERT_OK(wal->Commit());
    EXPECT_EQ(wal->durable_bytes(), 4096u + 2 * FrameBytes(big.size()));
  }
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
  auto records = Drain(*wal);
  ASSERT_EQ(records.size(), 5u);
  const uint64_t want_keys[] = {1, 2, 30, 40, 41};
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
    EXPECT_EQ(records[i].key, want_keys[i]);
  }
  EXPECT_EQ(ReadFile(wal_path).size(), 2 * 4096u);
  std::remove(wal_path.c_str());
}

TEST(WalLayoutTest, OpenThatOnlyReplaysLeavesTheFileByteIdentical) {
  TempFile file("wal_read_only");
  const std::string wal_path = Wal::PathFor(file.path());
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    for (uint64_t k = 0; k < 12; ++k) {
      ASSERT_OK(wal->Append(Wal::Op::kPut, k, Slice(std::string(700, 'r')))
                    .status());
      if (k % 3 == 2) ASSERT_OK(wal->Commit());
    }
  }
  std::string log = ReadFile(wal_path);
  // Nonzero bytes past the tail, as a torn write leaves them.
  log[log.size() - 5] = '\x7f';
  WriteFile(wal_path, log);
  for (int open = 0; open < 2; ++open) {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    EXPECT_EQ(Drain(*wal).size(), 12u);
    ASSERT_OK(wal->Commit());  // nothing pending: writes nothing either
  }
  EXPECT_EQ(ReadFile(wal_path), log);
  std::remove(wal_path.c_str());
}

// ---- Fault injection --------------------------------------------------------

TEST(WalFaultTest, CommitFailureIsStickyAndTailStaysConsistent) {
  TempFile file("wal_fsize");
  const std::string wal_path = Wal::PathFor(file.path());
  std::vector<ReplayedRecord> acked;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
    // First group commits fine and is the acknowledged state.
    for (uint64_t k = 0; k < 4; ++k) {
      ASSERT_OK(wal->Append(Wal::Op::kPut, k, Slice("good")).status());
    }
    ASSERT_OK(wal->Commit());
    acked = Drain(*wal);
    ASSERT_EQ(acked.size(), 4u);

    // Cap the file at its current length: the next commit needs at least
    // one more page and must fail — and the failure must be sticky.
    const std::string big(3000, 'x');
    FileSizeLimit limit(4096);
    for (uint64_t k = 100; k < 104; ++k) {
      ASSERT_OK(wal->Append(Wal::Op::kPut, k, Slice(big)).status());
    }
    Status failed = wal->Commit();
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
    // Sticky: later appends and commits report the original failure
    // without touching the file.
    auto append = wal->Append(Wal::Op::kPut, 200, Slice("late"));
    ASSERT_FALSE(append.ok());
    EXPECT_TRUE(append.status().IsIOError());
    ASSERT_FALSE(wal->Commit().ok());
    limit.Release();
    // Still sticky after the fault clears: the Wal object is poisoned.
    ASSERT_FALSE(wal->Append(Wal::Op::kPut, 201, Slice("late")).ok());
  }
  // Recovery path: a fresh Wal over the same file must see exactly the
  // acknowledged prefix — the failed group must not have corrupted the
  // durable tail (a torn partial write is truncated by the scanner).
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, SmallWal()));
  auto records = Drain(*wal);
  ASSERT_EQ(records.size(), acked.size());
  for (size_t i = 0; i < acked.size(); ++i) {
    EXPECT_EQ(records[i].lsn, acked[i].lsn);
    EXPECT_EQ(records[i].key, acked[i].key);
    EXPECT_EQ(records[i].payload, acked[i].payload);
  }
  // And the reopened log accepts new groups.
  ASSERT_OK(wal->Append(Wal::Op::kPut, 300, Slice("after")).status());
  ASSERT_OK(wal->Commit());
  EXPECT_EQ(Drain(*wal).size(), acked.size() + 1);
  std::remove(wal_path.c_str());
}

// ---- Engine-level ack contract ---------------------------------------------

Schema SmallSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"payload", TypeId::kVarchar, 32},
                 {"score", TypeId::kInt64, 0}});
}

Row MakeRow(uint64_t id) {
  return {Value::Int64(static_cast<int64_t>(id)),
          Value::Varchar("payload-" + std::to_string(id)),
          Value::Int64(static_cast<int64_t>(id * 7 + 3))};
}

TEST(WalFaultTest, FailedGroupCommitFailsTheGroupsWriteTickets) {
  ShardedEngineOptions opts;
  opts.num_shards = 1;
  opts.num_workers = 1;
  opts.path_prefix = ::testing::TempDir() + "nblb_walfault_" +
                     std::to_string(::getpid());
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 256;
  opts.wal_enabled = true;
  opts.schema = SmallSchema();
  opts.table_options.key_columns = {0};
  const std::string shard_path = opts.path_prefix + ".shard0.db";
  {
    ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
    // A first acknowledged batch establishes a durable baseline.
    RequestBatch warm;
    for (uint64_t id = 0; id < 8; ++id) {
      warm.push_back(Request::Insert(id, MakeRow(id)));
    }
    ASSERT_TRUE(engine->Execute(warm).all_ok());

    // Cap the WAL file at its current size; the next group is big enough
    // that its commit must extend the log (rows are ~60 framed bytes, so
    // 256 of them overflow any single page), so every write in the group
    // must come back failed — the op ran in memory, but the ack barrier is
    // the log. Rewrites within the cap still work, which is exactly the
    // torn-tail shape recovery has to handle.
    struct stat st;
    ASSERT_EQ(::stat(Wal::PathFor(shard_path).c_str(), &st), 0);
    FileSizeLimit limit(static_cast<size_t>(st.st_size));
    RequestBatch doomed;
    for (uint64_t id = 1000; id < 1256; ++id) {
      doomed.push_back(Request::Insert(id, MakeRow(id)));
    }
    BatchResult result = engine->Execute(doomed);
    limit.Release();
    size_t failed = 0;
    for (const auto& r : result.results) {
      if (!r.status.ok()) {
        ++failed;
        EXPECT_TRUE(r.status.IsIOError()) << r.status.ToString();
      }
    }
    EXPECT_EQ(failed, doomed.size());
    // Reads are unaffected by the poisoned WAL.
    ASSERT_OK(engine->Get(0).status());
    // The engine tears down with the WAL still poisoned: the clean-close
    // checkpoint will fail and print a note, which is the crash-equivalent
    // path — recovery below must still see exactly the acked writes.
    for (uint32_t i = 0; i < engine->num_shards(); ++i) {
      engine->shard(i)->SimulateCrashForTest();
    }
  }
  // Reopen and verify: every ACKED row must be there. The doomed rows were
  // applied in memory before their commit failed, so they may survive via
  // the heap walk (an in-process "crash" still flushes pages on close) —
  // admissible, since they were never acked — but any that did survive must
  // be intact, and the shard must be self-consistent.
  opts.truncate_on_open = false;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_OK_AND_ASSIGN(Row row, engine->Get(id));
    EXPECT_EQ(row[1].AsString(), "payload-" + std::to_string(id));
  }
  uint64_t live = 8;
  for (uint64_t id = 1000; id < 1256; ++id) {
    auto got = engine->Get(id);
    if (got.ok()) {
      ++live;
      EXPECT_EQ(got.ValueOrDie()[1].AsString(),
                "payload-" + std::to_string(id));
    } else {
      EXPECT_TRUE(got.status().IsNotFound());
    }
  }
  EXPECT_EQ(engine->shard(0)->rows(), live);
  EXPECT_EQ(engine->shard(0)->table()->index()->num_entries(), live);
  engine.reset();
  std::remove(shard_path.c_str());
  std::remove(Superblock::PathFor(shard_path).c_str());
  std::remove(Wal::PathFor(shard_path).c_str());
}

}  // namespace
}  // namespace nblb
