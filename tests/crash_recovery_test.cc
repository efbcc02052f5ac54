// Crash recovery tests.
//
// Unit level: a WAL-enabled Shard survives a clean close (reattach, no
// replay) and a simulated crash (heap walk + index rebuild + WAL tail
// replay), including the checkpoint-then-more-writes shape where only the
// tail past the recovery LSN replays, and hot rows whose updates reach the
// data file only at checkpoints (the flusher leaves referenced pages dirty).
//
// System level: a fork/SIGKILL harness. A child process opens a WAL-enabled
// ShardedEngine with aggressive flusher + checkpoint cadence (one input turns
// periodic checkpoints off) and drives a deterministic mixed put/delete
// stream, recording one intent byte before and one ack byte after every
// logical op (O_APPEND one-byte writes, so the side logs are torn-proof). The parent kills it at a randomized point,
// reopens the data in-process, and checks the recovered state against the
// op-stream model: every ACKED op's effect must be present; unacked ops may
// or may not be (they are only admissible as *later* states of the same
// key, never as lost acked state).

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "shard/shard.h"
#include "shard/sharded_engine.h"
#include "storage/superblock.h"
#include "storage/wal.h"
#include "test_util.h"

namespace nblb {
namespace {

Schema SmallSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"payload", TypeId::kVarchar, 32},
                 {"score", TypeId::kInt64, 0}});
}

// The score column carries the op sequence number, so a recovered row
// identifies exactly which op produced it. A `growing` payload (for
// GrowingSchema's wide VARCHAR) adds 0-799 bytes chosen by the sequence
// number, so successive puts of a key grow and shrink it by up to a fifth
// of a 4 KiB page: rows outgrow their heap pages and move.
std::string Payload(uint64_t key, uint64_t seq, bool growing) {
  std::string p = "s" + std::to_string(seq) + "-k" + std::to_string(key);
  if (growing) p.append((seq * 7919) % 800, 'g');
  return p;
}

Schema GrowingSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"payload", TypeId::kVarchar, 900},
                 {"score", TypeId::kInt64, 0}});
}

Row MakeRow(uint64_t key, uint64_t seq, bool growing = false) {
  return {Value::Int64(static_cast<int64_t>(key)),
          Value::Varchar(Payload(key, seq, growing)),
          Value::Int64(static_cast<int64_t>(seq))};
}

void RemoveShardFiles(const std::string& prefix, uint32_t num_shards) {
  for (uint32_t i = 0; i < num_shards; ++i) {
    const std::string path = prefix + ".shard" + std::to_string(i) + ".db";
    std::remove(path.c_str());
    std::remove(Superblock::PathFor(path).c_str());
    std::remove(Wal::PathFor(path).c_str());
  }
}

// ---- Shard-level recovery ---------------------------------------------------

ShardOptions DurableShardOptions(const std::string& tag) {
  ShardOptions opts;
  opts.path = ::testing::TempDir() + "nblb_crash_" + tag + "_" +
              std::to_string(::getpid()) + ".db";
  opts.page_size = 4096;
  opts.buffer_pool_frames = 256;
  opts.wal_enabled = true;
  opts.schema = SmallSchema();
  opts.table_options.key_columns = {0};
  opts.table_options.cached_columns = {2};
  return opts;
}

void RemoveShardFilesFor(const ShardOptions& opts) {
  std::remove(opts.path.c_str());
  std::remove(Superblock::PathFor(opts.path).c_str());
  std::remove(Wal::PathFor(opts.path).c_str());
}

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

/// The data file, superblock and WAL of a shard, as bytes.
struct ShardImage {
  std::string data, sb, wal;
};

ShardImage TakeImage(const ShardOptions& opts) {
  return {ReadFile(opts.path), ReadFile(Superblock::PathFor(opts.path)),
          ReadFile(Wal::PathFor(opts.path))};
}

void RestoreImage(const ShardOptions& opts, const ShardImage& image) {
  WriteFile(opts.path, image.data);
  WriteFile(Superblock::PathFor(opts.path), image.sb);
  WriteFile(Wal::PathFor(opts.path), image.wal);
}

TEST(ShardRecoveryTest, CleanCloseReattachesWithoutReplay) {
  ShardOptions opts = DurableShardOptions("clean");
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(7, opts));
    // A put logs 29 B of framing (8 B header + lsn/op/key/payload_len) and
    // the row's trimmed image: the two INT64s plus the VARCHAR(32)'s 2-byte
    // length and the bytes it uses, none of its padding.
    uint64_t want_wal_bytes = 0;
    for (uint64_t k = 0; k < 50; ++k) {
      const Row row = MakeRow(k, k);
      ASSERT_OK(shard->Insert(row));
      want_wal_bytes += 29 + 8 + 2 + row[1].AsString().size() + 8;
    }
    EXPECT_EQ(
        shard->database()->metrics()->Snapshot().Total("wal.bytes_appended"),
        want_wal_bytes);
    ASSERT_OK(shard->CommitWal());
    // Destructor runs the clean-close checkpoint.
  }
  opts.truncate = false;
  ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(7, opts));
  EXPECT_FALSE(shard->recovered());
  EXPECT_EQ(shard->replayed_records(), 0u);
  EXPECT_EQ(shard->rows(), 50u);
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_OK_AND_ASSIGN(Row row, shard->Get(k));
    EXPECT_EQ(static_cast<uint64_t>(row[2].AsInt()), k);
  }
  // The reattached shard keeps working.
  ASSERT_OK(shard->Insert(MakeRow(100, 100)));
  ASSERT_OK(shard->CommitWal());
  shard.reset();
  RemoveShardFilesFor(opts);
}

TEST(ShardRecoveryTest, CrashReplaysWalTail) {
  ShardOptions opts = DurableShardOptions("crash");
  Row full = MakeRow(31, 31);
  full[1] = Value::Varchar(std::string(32, 'f'));
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(3, opts));
    // Checkpointed prefix: these rows live in the data file only.
    for (uint64_t k = 0; k < 20; ++k) {
      ASSERT_OK(shard->Insert(MakeRow(k, k)));
    }
    ASSERT_OK(shard->Checkpoint());
    // Tail: committed to the WAL but never checkpointed — inserts, an
    // update, and a delete, so replay exercises every record kind.
    for (uint64_t k = 20; k < 30; ++k) {
      ASSERT_OK(shard->Insert(MakeRow(k, k)));
    }
    ASSERT_OK(shard->Update(5, MakeRow(5, 500)));
    ASSERT_OK(shard->Delete(7));
    ASSERT_OK(shard->CommitWal());
    // A tail of fixed-image puts appended straight to the log, the way
    // older builds logged every row: an insert, an update, and a row whose
    // VARCHAR is full (its trimmed and fixed images are the same bytes).
    // None of them touched the table, so only replay can apply them.
    for (const Row& row : {MakeRow(30, 30), MakeRow(6, 600), full}) {
      ASSERT_OK_AND_ASSIGN(std::string fixed,
                           shard->table()->row_codec().Encode(row));
      ASSERT_OK(shard->wal()
                    ->Append(Wal::Op::kPut,
                             static_cast<uint64_t>(row[0].AsInt()),
                             Slice(fixed))
                    .status());
    }
    ASSERT_OK(shard->CommitWal());
    shard->SimulateCrashForTest();
  }
  opts.truncate = false;
  ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(3, opts));
  EXPECT_TRUE(shard->recovered());
  // 10 inserts + 1 update + 1 delete + 3 fixed-image puts past the
  // checkpoint LSN.
  EXPECT_EQ(shard->replayed_records(), 15u);
  EXPECT_EQ(shard->rows(), 31u);
  for (uint64_t k = 0; k < 32; ++k) {
    auto got = shard->Get(k);
    if (k == 7) {
      EXPECT_TRUE(got.status().IsNotFound());
      continue;
    }
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    const uint64_t want_seq = (k == 5) ? 500 : (k == 6) ? 600 : k;
    EXPECT_EQ(static_cast<uint64_t>(got.ValueOrDie()[2].AsInt()), want_seq);
    EXPECT_EQ(got.ValueOrDie()[1],
              k == 31 ? full[1] : MakeRow(k, want_seq)[1]);
  }
  // Structural sanity: the rebuilt index agrees with the live row count.
  EXPECT_EQ(shard->table()->index()->num_entries(), 31u);
  shard.reset();
  RemoveShardFilesFor(opts);
}

TEST(ShardRecoveryTest, CrashWithUncommittedTailLosesOnlyUnacked) {
  ShardOptions opts = DurableShardOptions("unacked");
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(1, opts));
    for (uint64_t k = 0; k < 10; ++k) {
      ASSERT_OK(shard->Insert(MakeRow(k, k)));
    }
    ASSERT_OK(shard->CommitWal());  // acked
    for (uint64_t k = 10; k < 15; ++k) {
      ASSERT_OK(shard->Insert(MakeRow(k, k)));  // appended, never committed
    }
    shard->SimulateCrashForTest();
  }
  opts.truncate = false;
  ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(1, opts));
  EXPECT_TRUE(shard->recovered());
  // The contract: every COMMITTED (acked) write survives. The uncommitted
  // tail was never acked, so it MAY survive (here it does, via the heap
  // walk — an in-process "crash" still flushes buffer-pool pages on close)
  // or may not; either way the recovered shard must be self-consistent.
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(shard->Get(k).ok()) << "acked key " << k << " lost";
  }
  uint64_t live = 0;
  for (uint64_t k = 0; k < 15; ++k) {
    auto got = shard->Get(k);
    if (got.ok()) {
      ++live;
      EXPECT_EQ(static_cast<uint64_t>(got.ValueOrDie()[2].AsInt()), k);
    } else {
      EXPECT_TRUE(got.status().IsNotFound());
    }
  }
  EXPECT_EQ(shard->rows(), live);
  EXPECT_EQ(shard->table()->index()->num_entries(), live);
  shard.reset();
  RemoveShardFilesFor(opts);
}

// A flush pass pre-cleans only the next CLOCK victims (usage 0), so resident
// rows that keep being updated are durable through the WAL alone: between
// checkpoints the data file sees no write at all, the checkpoint writes the
// dirty set once, and recovery replays the tail on top of it. The test runs
// each group's FlushIfDue itself, as the engine's worker does.
TEST(ShardRecoveryTest, HotUpdatesReachTheDataFileOnlyAtCheckpoint) {
  constexpr uint64_t kRows = 40;
  constexpr uint64_t kHotRows = 4;
  constexpr uint64_t kGroups = 200;
  // The same deterministic stream runs with the flusher off (control: its
  // checkpoint writes exactly the dirty set, each page once) and on.
  uint64_t checkpoint_writes[2] = {0, 0};
  for (int flusher_on = 0; flusher_on < 2; ++flusher_on) {
    SCOPED_TRACE(flusher_on ? "flusher on" : "flusher off");
    ShardOptions opts =
        DurableShardOptions("hot_updates" + std::to_string(flusher_on));
    // 1 µs: every group's FlushIfDue runs a pass.
    opts.flusher_interval_us = flusher_on ? 1 : 0;
    {
      ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(4, opts));
      for (uint64_t k = 0; k < kRows; ++k) {
        ASSERT_OK(shard->Insert(MakeRow(k, k)));
      }
      ASSERT_OK(shard->CommitWal());
      ASSERT_OK(shard->Checkpoint());
      MetricsRegistry* metrics = shard->database()->metrics();
      auto counter = [metrics](const char* name) {
        return metrics->Snapshot().Total(name);
      };
      const uint64_t writes_at_checkpoint = counter("disk.writes");
      const uint64_t passes_at_checkpoint =
          counter("buffer_pool.flusher_passes");
      // One service group = the updates plus their group commit.
      for (uint64_t g = 0; g < kGroups; ++g) {
        for (uint64_t k = 0; k < kHotRows; ++k) {
          ASSERT_OK(shard->Update(k, MakeRow(k, 1000 + g)));
        }
        ASSERT_OK(shard->CommitWal());
        ASSERT_OK(shard->FlushIfDue());
      }
      if (flusher_on) {
        EXPECT_GT(counter("buffer_pool.flusher_passes"),
                  passes_at_checkpoint + 20);
      } else {
        EXPECT_EQ(counter("buffer_pool.flusher_passes"), passes_at_checkpoint);
      }
      EXPECT_EQ(counter("disk.writes"), writes_at_checkpoint)
          << "hot pages were written back between checkpoints";

      ASSERT_OK(shard->Checkpoint());
      checkpoint_writes[flusher_on] =
          counter("disk.writes") - writes_at_checkpoint;

      // A WAL-only tail past the checkpoint: these updates live in the log
      // and in dirty frames when the shard goes down.
      for (uint64_t g = 0; g < 10; ++g) {
        for (uint64_t k = 0; k < kHotRows; ++k) {
          ASSERT_OK(shard->Update(k, MakeRow(k, 5000 + g)));
        }
        ASSERT_OK(shard->CommitWal());
      }
      shard->SimulateCrashForTest();
    }
    opts.truncate = false;
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(4, opts));
    EXPECT_TRUE(shard->recovered());
    EXPECT_EQ(shard->replayed_records(), 10 * kHotRows);
    EXPECT_EQ(shard->rows(), kRows);
    for (uint64_t k = 0; k < kRows; ++k) {
      ASSERT_OK_AND_ASSIGN(Row row, shard->Get(k));
      const uint64_t want = k < kHotRows ? 5009 : k;
      EXPECT_EQ(static_cast<uint64_t>(row[2].AsInt()), want) << "key " << k;
    }
    shard.reset();
    RemoveShardFilesFor(opts);
  }
  EXPECT_GT(checkpoint_writes[0], 0u);
  EXPECT_EQ(checkpoint_writes[1], checkpoint_writes[0])
      << "checkpoint wrote a different page count with the flusher on";
}

// Heap pages carry no checksum, so the row decoder is all that stands
// between a damaged VARCHAR length and a read past the tuple: the length
// must come back as Corruption from Get, GetProjected and GetBatch and from
// the crash-recovery heap walk, never as a row.
TEST(ShardRecoveryTest, CorruptHeapVarcharLengthIsCorruption) {
  ShardOptions opts = DurableShardOptions("corrupt_heap");
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(2, opts));
    for (uint64_t k = 0; k < 20; ++k) {
      ASSERT_OK(shard->Insert(MakeRow(k, k)));
    }
    ASSERT_OK(shard->CommitWal());
    // Destructor runs the clean-close checkpoint.
  }
  // Row 13's tuple is the only place its VARCHAR bytes occur in the data
  // file; the 2-byte length in front of them becomes 4000 (capacity 32).
  std::string data;
  {
    std::ifstream in(opts.path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string marker = MakeRow(13, 13)[1].AsString();
  const size_t at = data.find(marker);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(data.find(marker, at + 1), std::string::npos);
  ASSERT_EQ(DecodeFixed16(data.data() + at - 2), marker.size());
  {
    char len[2];
    EncodeFixed16(len, 4000);
    std::fstream f(opts.path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(at - 2));
    f.write(len, 2);
    ASSERT_TRUE(f.good());
  }

  opts.truncate = false;
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(2, opts));
    EXPECT_FALSE(shard->recovered());
    auto got = shard->Get(13);
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
    EXPECT_TRUE(shard->GetProjected(13, {2}).status().IsCorruption());
    std::vector<Result<Row>> batch;
    ASSERT_OK(shard->GetBatch({12, 13, 14}, &batch));
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_OK(batch[0].status());
    EXPECT_TRUE(batch[1].status().IsCorruption());
    EXPECT_OK(batch[2].status());
    ASSERT_OK_AND_ASSIGN(Row neighbour, shard->Get(12));
    EXPECT_EQ(neighbour[1], MakeRow(12, 12)[1]);
    // Leave the shard marked unclean, so the next open walks the heap.
    shard->SimulateCrashForTest();
  }
  {
    auto recovered = Shard::Open(2, opts);
    EXPECT_TRUE(recovered.status().IsCorruption())
        << recovered.status().ToString();
  }
  RemoveShardFilesFor(opts);
}

// A row that outgrows its heap page moves to the heap's tail. Its old slot
// stays live until the put is durable, so a crash image in which the pool
// wrote back the old page, but neither the tail page nor the log, still
// holds the last acked copy. With both copies on disk, recovery keeps the
// later one in chain order, the moved one; and after the put commits,
// recovery keeps exactly one copy, the new one.
TEST(ShardRecoveryTest, MovedRowKeepsOneCopyWithTheLastAckedValue) {
  ShardOptions opts = DurableShardOptions("moved");
  opts.schema = Schema({{"id", TypeId::kInt64, 0},
                        {"payload", TypeId::kVarchar, 2000},
                        {"score", TypeId::kInt64, 0}});
  auto row = [](uint64_t key, size_t len, uint64_t score) {
    return Row{Value::Int64(static_cast<int64_t>(key)),
               Value::Varchar(std::string(len, 'p')),
               Value::Int64(static_cast<int64_t>(score))};
  };
  constexpr uint64_t kRows = 200;
  ShardImage before_ack, both_copies;
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(5, opts));
    // 30 bytes a row: the first heap page fills up, the second holds 64.
    for (uint64_t k = 0; k < kRows; ++k) {
      ASSERT_OK(shard->Insert(row(k, 8, k)));
    }
    ASSERT_OK(shard->CommitWal());
    ASSERT_OK(shard->Checkpoint());
    Table* t = shard->table();
    const std::string key = *t->key_codec().EncodeValues({Value::Int64(3)});
    ASSERT_OK_AND_ASSIGN(uint64_t old_tid, t->index()->Get(Slice(key)));

    ASSERT_OK(shard->Update(3, row(3, 1500, 1003)));
    ASSERT_EQ(t->stats().moves, 1u);
    ASSERT_OK_AND_ASSIGN(uint64_t new_tid, t->index()->Get(Slice(key)));
    const Rid old_rid = Rid::FromU64(old_tid);
    ASSERT_NE(Rid::FromU64(new_tid).page, old_rid.page);
    std::string old_copy;
    ASSERT_OK(t->heap()->Get(old_rid, &old_copy));  // live until the commit
    ASSERT_OK(shard->database()->buffer_pool()->FlushPage(old_rid.page));
    before_ack = TakeImage(opts);
    ASSERT_OK(shard->database()->buffer_pool()->FlushAll());
    both_copies = TakeImage(opts);

    ASSERT_OK(shard->CommitWal());
    EXPECT_TRUE(t->heap()->Get(old_rid, &old_copy).IsNotFound());
    ASSERT_OK(shard->Update(3, row(3, 1600, 2003)));  // grows in place
    EXPECT_EQ(t->stats().moves, 1u);
    ASSERT_OK(shard->CommitWal());
    shard->SimulateCrashForTest();
  }
  auto one_copy_of_key_3 = [&](Shard* shard, uint64_t want_score,
                               size_t want_len) {
    EXPECT_TRUE(shard->recovered());
    ASSERT_OK_AND_ASSIGN(Row got, shard->Get(3));
    EXPECT_EQ(static_cast<uint64_t>(got[2].AsInt()), want_score);
    EXPECT_EQ(got[1].AsString().size(), want_len);
    size_t copies = 0;
    ASSERT_OK(shard->table()->ForEachRow([&](const Rid&, const Row& r) {
      if (r[0].AsInt() == 3) ++copies;
      return Status::OK();
    }));
    EXPECT_EQ(copies, 1u);
    EXPECT_EQ(shard->rows(), kRows);
    EXPECT_EQ(shard->table()->heap()->tuple_count(), kRows);
    EXPECT_EQ(shard->table()->index()->num_entries(), kRows);
  };
  opts.truncate = false;
  {
    SCOPED_TRACE("crash after both puts were acked");
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(5, opts));
    one_copy_of_key_3(shard.get(), 2003, 1600);
  }
  {
    SCOPED_TRACE("crash before the moving put was acked");
    RestoreImage(opts, before_ack);
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(5, opts));
    one_copy_of_key_3(shard.get(), 3, 8);
  }
  {
    SCOPED_TRACE("crash with both copies on disk, the put not acked");
    RestoreImage(opts, both_copies);
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(5, opts));
    one_copy_of_key_3(shard.get(), 1003, 1500);
  }
  RemoveShardFilesFor(opts);
}

// Files of another on-disk format are refused by name, and left alone. The
// payload CRC does not cover the format field, so rewriting it leaves two
// otherwise intact slots.
TEST(ShardRecoveryTest, OlderFormatFailsToOpenAndTouchesNoFile) {
  ShardOptions opts = DurableShardOptions("old_format");
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(6, opts));
    for (uint64_t k = 0; k < 20; ++k) {
      ASSERT_OK(shard->Insert(MakeRow(k, k)));
    }
    ASSERT_OK(shard->CommitWal());
    // Destructor runs the clean-close checkpoint.
  }
  {
    std::string sb = ReadFile(Superblock::PathFor(opts.path));
    ASSERT_EQ(sb.size(), 8192u);
    // Format 3 packed WAL commits back-to-back across pages.
    for (size_t slot : {0, 4096}) EncodeFixed32(&sb[slot + 4], 3);
    WriteFile(Superblock::PathFor(opts.path), sb);
  }
  const ShardImage before = TakeImage(opts);
  opts.truncate = false;
  auto opened = Shard::Open(6, opts);
  ASSERT_TRUE(opened.status().IsNotSupported()) << opened.status().ToString();
  EXPECT_NE(opened.status().message().find("format 3"), std::string::npos)
      << opened.status().ToString();
  EXPECT_NE(opened.status().message().find("format 4"), std::string::npos)
      << opened.status().ToString();
  const ShardImage after = TakeImage(opts);
  EXPECT_TRUE(after.data == before.data);
  EXPECT_TRUE(after.sb == before.sb);
  EXPECT_TRUE(after.wal == before.wal);
  RemoveShardFilesFor(opts);
}

TEST(ShardRecoveryTest, ReopenWithoutTruncateRequiresWal) {
  // Without a WAL there is no catalog to reattach from: reopening an
  // existing non-durable shard file must refuse rather than destroy it.
  ShardOptions opts = DurableShardOptions("guard");
  opts.wal_enabled = false;
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(0, opts));
    ASSERT_OK(shard->Insert(MakeRow(1, 1)));
  }
  opts.truncate = false;
  auto reopen = Shard::Open(0, opts);
  EXPECT_FALSE(reopen.ok());
  RemoveShardFilesFor(opts);
}

// ---- Kill-9 harness ---------------------------------------------------------

constexpr uint64_t kKeys = 512;
constexpr uint64_t kMaxOps = 2'000'000;

struct OpModel {
  uint64_t key = 0;
  bool is_delete = false;
};

// Deterministic LCG shared by child (execution) and parent (verification);
// seed the state once, then call per op.
OpModel NextOp(uint64_t* state) {
  uint64_t x = *state;
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  *state = x;
  OpModel op;
  op.key = (x >> 33) % kKeys;
  op.is_delete = ((x >> 13) % 10) < 2;
  return op;
}

ShardedEngineOptions HarnessOptions(const std::string& prefix,
                                    bool truncate,
                                    uint64_t checkpoint_every_groups,
                                    bool growing) {
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.num_workers = 2;
  opts.path_prefix = prefix;
  opts.truncate_on_open = truncate;
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 256;
  opts.wal_enabled = true;
  // Aggressive cadences so randomized kills land mid-flush-pass and
  // mid-checkpoint, not just mid-group. With periodic checkpoints off
  // (0), acked writes since open live only in the WAL and in dirty frames.
  opts.flusher_interval_us = 500;
  opts.checkpoint_every_groups = checkpoint_every_groups;
  opts.schema = growing ? GrowingSchema() : SmallSchema();
  opts.table_options.key_columns = {0};
  opts.table_options.cached_columns = {2};
  return opts;
}

/// Child body (post-fork): never returns, only _exit()s. Exit codes:
/// 0 = ran out of ops (harness should use a bigger kMaxOps), 2 = engine
/// open failed, 3 = an op failed with an unexpected status.
void RunChildWorkload(const std::string& prefix, uint64_t seed,
                      uint64_t checkpoint_every_groups, bool growing,
                      const std::string& intents_path,
                      const std::string& acks_path) {
  const int intents_fd =
      ::open(intents_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  const int acks_fd =
      ::open(acks_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (intents_fd < 0 || acks_fd < 0) _exit(2);
  auto engine_or = ShardedEngine::Open(
      HarnessOptions(prefix, true, checkpoint_every_groups, growing));
  if (!engine_or.ok()) _exit(2);
  auto engine = std::move(engine_or).ValueOrDie();
  uint64_t state = seed;
  for (uint64_t i = 0; i < kMaxOps; ++i) {
    const OpModel op = NextOp(&state);
    if (::write(intents_fd, "i", 1) != 1) _exit(2);
    if (op.is_delete) {
      Status s = engine->Delete(op.key);
      if (!s.ok() && !s.IsNotFound()) _exit(3);
    } else {
      const Row row = MakeRow(op.key, i, growing);
      Status s = engine->Insert(op.key, row);
      if (s.IsAlreadyExists()) s = engine->Update(op.key, row);
      if (!s.ok()) _exit(3);
    }
    if (::write(acks_fd, "a", 1) != 1) _exit(2);
  }
  _exit(0);
}

uint64_t FileSizeOrZero(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

TEST(CrashRecoveryTest, Kill9AtRandomizedPointsLosesNoAckedWrite) {
  const std::string base = ::testing::TempDir() + "nblb_kill9_" +
                           std::to_string(::getpid());
  // Deterministic (seed, kill-delay-ms, checkpoint cadence, growing rows)
  // schedule covering early kills (load phase, first checkpoints), steady
  // state, late kills, one run with periodic checkpoints off, and one whose
  // puts grow and shrink rows so they move between heap pages.
  const struct {
    uint64_t seed;
    int kill_delay_ms;
    uint64_t checkpoint_every_groups;
    bool growing;
  } kIterations[] = {{11, 25, 4, false},  {23, 60, 4, false},
                     {37, 110, 4, false}, {51, 170, 4, false},
                     {73, 240, 4, false}, {97, 330, 4, false},
                     {113, 200, 0, false}, {131, 450, 4, true}};

  int iteration = 0;
  for (const auto& it : kIterations) {
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " seed " +
                 std::to_string(it.seed));
    const std::string prefix = base + "_it" + std::to_string(iteration);
    const std::string intents_path = prefix + ".intents";
    const std::string acks_path = prefix + ".acks";
    ++iteration;

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunChildWorkload(prefix, it.seed, it.checkpoint_every_groups,
                       it.growing, intents_path, acks_path);
    }
    // Start the kill clock only once the child is actually serving (first
    // ack recorded) — sanitizer builds can take a while to open the engine,
    // and a kill before any ack verifies nothing.
    for (int spin = 0; spin < 20000 && FileSizeOrZero(acks_path) == 0;
         ++spin) {
      ::usleep(1000);
    }
    ::usleep(static_cast<useconds_t>(it.kill_delay_ms) * 1000);
    ::kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    if (WIFEXITED(wstatus)) {
      // The child outlived the workload (or failed): only a clean "ran dry"
      // is acceptable, and then the run is still verifiable below.
      ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "child reported failure";
    } else {
      ASSERT_TRUE(WIFSIGNALED(wstatus));
      ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
    }

    const uint64_t n_ack = FileSizeOrZero(acks_path);
    const uint64_t n_intent = FileSizeOrZero(intents_path);
    ASSERT_GE(n_intent, n_ack);
    ASSERT_GT(n_ack, 0u) << "kill landed before any op acked; raise delay";

    // Rebuild the op-stream model: for every key, the last ACKED op index
    // and the set of admissible later (intended but unacked) states.
    std::map<uint64_t, int64_t> last_acked;       // key -> op index
    std::map<uint64_t, bool> acked_present;       // state after last acked
    std::vector<OpModel> ops(n_intent);
    uint64_t state = it.seed;
    for (uint64_t i = 0; i < n_intent; ++i) {
      ops[i] = NextOp(&state);
      if (i < n_ack) {
        last_acked[ops[i].key] = static_cast<int64_t>(i);
        acked_present[ops[i].key] = !ops[i].is_delete;
      }
    }

    // Reopen in-process and verify.
    const ShardedEngineOptions reopen = HarnessOptions(
        prefix, false, it.checkpoint_every_groups, it.growing);
    ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(reopen));
    uint64_t recovered_shards = 0;
    for (uint32_t s = 0; s < engine->num_shards(); ++s) {
      if (engine->shard(s)->recovered()) ++recovered_shards;
      // Structural invariant: rebuilt index and row counter agree.
      EXPECT_EQ(engine->shard(s)->table()->index()->num_entries(),
                engine->shard(s)->rows());
    }
    EXPECT_GT(recovered_shards, 0u) << "kill-9 should not look clean";

    uint64_t live_rows = 0;
    for (uint64_t key = 0; key < kKeys; ++key) {
      auto got = engine->Get(key);
      const int64_t acked_idx =
          last_acked.count(key) ? last_acked[key] : -1;
      if (got.ok()) {
        ++live_rows;
        const Row row = std::move(got).ValueOrDie();
        const uint64_t seq = static_cast<uint64_t>(row[2].AsInt());
        // The row must be the effect of a real put on this key...
        ASSERT_LT(seq, n_intent) << "key " << key;
        ASSERT_EQ(ops[seq].key, key) << "seq " << seq;
        ASSERT_FALSE(ops[seq].is_delete) << "seq " << seq;
        EXPECT_EQ(row[1].AsString(), Payload(key, seq, it.growing));
        // ...and at least as new as the last acked op on the key: an older
        // surviving state would mean an acked write was lost.
        ASSERT_GE(static_cast<int64_t>(seq), acked_idx)
            << "key " << key << ": recovered seq " << seq
            << " predates last acked op " << acked_idx;
      } else {
        ASSERT_TRUE(got.status().IsNotFound()) << got.status().ToString();
        if (acked_idx >= 0 && acked_present[key]) {
          // Acked state says present; absence is only admissible if some
          // unacked (intended) delete could have raced past the kill.
          bool unacked_delete = false;
          for (uint64_t i = static_cast<uint64_t>(acked_idx) + 1;
               i < n_intent; ++i) {
            if (ops[i].key == key && ops[i].is_delete) {
              unacked_delete = true;
              break;
            }
          }
          ASSERT_TRUE(unacked_delete)
              << "key " << key << ": acked put at op " << acked_idx
              << " vanished with no intended delete after it";
        }
      }
    }
    uint64_t engine_rows = 0;
    for (uint32_t s = 0; s < engine->num_shards(); ++s) {
      engine_rows += engine->shard(s)->rows();
    }
    EXPECT_EQ(engine_rows, live_rows);

    // The recovered engine serves writes: touch a fresh key, read it back.
    ASSERT_OK(engine->Insert(kKeys + 1, MakeRow(kKeys + 1, 999999)));
    ASSERT_OK_AND_ASSIGN(Row fresh, engine->Get(kKeys + 1));
    EXPECT_EQ(fresh[2].AsInt(), 999999);

    // Clean close, then one more reopen: must take the clean path.
    engine.reset();
    ASSERT_OK_AND_ASSIGN(engine, ShardedEngine::Open(reopen));
    for (uint32_t s = 0; s < engine->num_shards(); ++s) {
      EXPECT_FALSE(engine->shard(s)->recovered())
          << "clean close still looked like a crash";
    }
    ASSERT_OK(engine->Get(kKeys + 1).status());
    engine.reset();

    RemoveShardFiles(prefix, 2);
    std::remove(intents_path.c_str());
    std::remove(acks_path.c_str());
  }
}

}  // namespace
}  // namespace nblb
