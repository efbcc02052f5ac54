// Async serving-path tests: Submit/Ticket lifecycle, the threads Open
// starts, completion callbacks vs write segmentation, where callbacks run
// and what they may submit, adaptive coalesce-window growth under a bursty
// multi-threaded submitter, a regression check that the blocking Execute
// wrapper produces the exact per-slot result ordering the old synchronous
// Execute defined, and burst submission (order, early wakes, shutdown) with
// both row forms. Run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_engine.h"
#include "test_util.h"

namespace nblb {
namespace {

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

ShardedEngineOptions SmallOptions(const std::string& tag, uint32_t shards,
                                  uint32_t workers = 0) {
  ShardedEngineOptions opts;
  opts.num_shards = shards;
  opts.num_workers = workers;
  opts.path_prefix = ::testing::TempDir() + "nblb_async_" + tag + "_" +
                     std::to_string(::getpid());
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 512;
  opts.schema = SmallSchema();
  opts.table_options.key_columns = {0};
  return opts;
}

void Cleanup(const ShardedEngineOptions& opts) {
  for (uint32_t i = 0; i < opts.num_shards; ++i) {
    std::remove(
        (opts.path_prefix + ".shard" + std::to_string(i) + ".db").c_str());
  }
}

/// Threads of this process, from /proc/self/task, leaving out the kernel's
/// io_uring workers ("iou-*"): they come and go with earlier tests' I/O.
size_t ProcessThreads() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name.rfind("iou-", 0) != 0) ++n;
  }
  return n;
}

TEST(ShardAsyncTest, OpenStartsOnlyItsWorkers) {
  // No flusher, and nothing served yet: the disk managers start their
  // fallback pools lazily, so the engine's own threads are all that Open
  // adds. Callbacks run on those workers; there is no other pool.
  auto opts = SmallOptions("threads", 4, /*workers=*/2);
  // A throwaway thread first: a sanitizer runtime that starts a helper
  // thread with the process's first thread (TSan does) has it by now.
  std::thread([] {}).join();
  const size_t before = ProcessThreads();
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  EXPECT_EQ(engine->num_workers(), 2u);
  EXPECT_EQ(ProcessThreads(), before + 2);
  engine.reset();
  EXPECT_EQ(ProcessThreads(), before);
  Cleanup(opts);

  // With the WAL on, committed writes start no thread: each log writes its
  // own file with plain pwrite and fdatasync. (Open's checkpoint flushes
  // the new tables, which starts each data file's fallback io pool when
  // that backend is in use.)
  opts.wal_enabled = true;
  ASSERT_OK_AND_ASSIGN(engine, ShardedEngine::Open(opts));
  const size_t opened = ProcessThreads();
  RequestBatch puts;
  for (uint64_t id = 0; id < 64; ++id) {
    puts.push_back(Request::Insert(id, MakeRow(id)));
  }
  ASSERT_TRUE(engine->Execute(puts).all_ok());
  EXPECT_GE(engine->MetricsSnapshotNow().Total("wal.commits"),
            opts.num_shards);
  EXPECT_EQ(ProcessThreads(), opened);
  engine.reset();
  EXPECT_EQ(ProcessThreads(), before);
  Cleanup(opts);
  for (uint32_t i = 0; i < opts.num_shards; ++i) {
    const std::string db =
        opts.path_prefix + ".shard" + std::to_string(i) + ".db";
    std::remove((db + ".sb").c_str());
    std::remove((db + ".wal").c_str());
  }
}

TEST(ShardAsyncTest, SubmitCompletesAndWaitIsIdempotent) {
  auto opts = SmallOptions("lifecycle", 4);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  RequestBatch inserts;
  for (uint64_t id = 0; id < 500; ++id) {
    inserts.push_back(Request::Insert(id, MakeRow(id)));
  }
  std::atomic<int> fired{0};
  auto ticket = engine->Submit(std::move(inserts),
                               [&](const BatchResult& result) {
                                 EXPECT_EQ(result.results.size(), 500u);
                                 EXPECT_TRUE(result.all_ok());
                                 fired.fetch_add(1);
                               });
  ticket->Wait();
  // Wait() returning implies the callback already ran (the ticket is marked
  // done only after the callback returns).
  EXPECT_EQ(fired.load(), 1);
  // Wait after completion returns immediately; TryWait agrees.
  ticket->Wait();
  EXPECT_TRUE(ticket->TryWait());
  EXPECT_EQ(ticket->result().results.size(), 500u);
  EXPECT_TRUE(ticket->result().all_ok());
  EXPECT_EQ(fired.load(), 1) << "callback fires exactly once";

  // TryWait on an eventually-completing ticket flips to true.
  RequestBatch gets;
  for (uint64_t id = 0; id < 500; ++id) gets.push_back(Request::Get(id));
  auto get_ticket = engine->Submit(std::move(gets));
  while (!get_ticket->TryWait()) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(get_ticket->result().all_ok());
  for (uint64_t id = 0; id < 500; ++id) {
    EXPECT_EQ(get_ticket->result().results[id].row, MakeRow(id));
  }

  // Only the callback-carrying submit counts.
  EXPECT_EQ(engine->MetricsSnapshotNow().Total("engine.async_submits"), 1u);
  Cleanup(opts);
}

TEST(ShardAsyncTest, CompletionSeesWritesFromEarlierTicketsSameShard) {
  // Write segmentation vs completion ordering: tickets queued to the same
  // shard execute in queue order, and a get coalesced into a later group
  // must observe every earlier write — even when the insert and the read
  // were submitted asynchronously back-to-back without waiting.
  auto opts = SmallOptions("ordering", 1);  // one shard: total order
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  std::vector<ShardedEngine::TicketPtr> tickets;
  std::mutex order_mu;
  std::vector<int> completion_order;
  for (int round = 0; round < 50; ++round) {
    const uint64_t id = 1000 + round;
    RequestBatch write_then_read;
    write_then_read.push_back(Request::Insert(id, MakeRow(id)));
    write_then_read.push_back(Request::Get(id));  // same batch, after write
    tickets.push_back(engine->Submit(
        std::move(write_then_read), [&, round](const BatchResult& result) {
          std::lock_guard<std::mutex> lk(order_mu);
          completion_order.push_back(round);
          EXPECT_TRUE(result.all_ok()) << "round " << round;
        }));

    RequestBatch read_prev;  // separate ticket reading this round's insert
    read_prev.push_back(Request::Get(id));
    tickets.push_back(engine->Submit(std::move(read_prev)));
  }
  for (auto& t : tickets) t->Wait();

  for (int round = 0; round < 50; ++round) {
    const uint64_t id = 1000 + round;
    // In-batch: the get after the insert saw the write (segmentation).
    const auto& same_batch = tickets[2 * round]->result();
    ASSERT_OK(same_batch.results[1].status);
    EXPECT_EQ(same_batch.results[1].row, MakeRow(id));
    // Cross-ticket, same shard: the later ticket saw the earlier write.
    const auto& cross = tickets[2 * round + 1]->result();
    ASSERT_OK(cross.results[0].status);
    EXPECT_EQ(cross.results[0].row, MakeRow(id));
  }
  // The one worker completes its shard's tickets in queue order and runs
  // each callback as it does, so callbacks fire in submission order.
  ASSERT_EQ(completion_order.size(), 50u);
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(completion_order[round], round);
  }
  Cleanup(opts);
}

TEST(ShardAsyncTest, AdaptiveWindowGrowsUnderBurstySubmitters) {
  // 8 threads firing async submissions at one shard/worker: the backlog
  // must outrun the worker, the coalesce window must grow past 1, and not
  // a single request may be lost or misordered.
  auto opts = SmallOptions("burst", 1, /*workers=*/1);
  opts.max_coalesce_window = 16;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  constexpr int kThreads = 8;
  constexpr int kTicketsPerThread = 60;
  constexpr int kOpsPerTicket = 24;
  constexpr uint64_t kIdsPerRound =
      uint64_t{kThreads} * kTicketsPerThread * kOpsPerTicket;
  // A single burst almost always builds a backlog against one worker, but
  // a fast machine could in principle keep draining at depth 1; retry a
  // bounded number of rounds until coalescing is observed so the assertion
  // is about the mechanism, not about scheduler luck.
  constexpr int kMaxRounds = 10;

  std::atomic<uint64_t> callbacks{0};
  uint64_t rounds_run = 0;
  MetricsSnapshot stats;
  for (int round = 0; round < kMaxRounds; ++round) {
    rounds_run = round + 1;
    std::vector<std::thread> submitters;
    std::vector<std::vector<ShardedEngine::TicketPtr>> tickets(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t, round] {
        const uint64_t base =
            static_cast<uint64_t>(round) * kIdsPerRound +
            static_cast<uint64_t>(t) * kTicketsPerThread * kOpsPerTicket;
        for (int k = 0; k < kTicketsPerThread; ++k) {
          RequestBatch batch;
          for (int i = 0; i < kOpsPerTicket; ++i) {
            const uint64_t id =
                base + static_cast<uint64_t>(k) * kOpsPerTicket + i;
            batch.push_back(Request::Insert(id, MakeRow(id)));
          }
          // Fire-and-forget: no waiting between submissions, so queue
          // depth at the single shard is the whole point of the test.
          tickets[t].push_back(engine->Submit(
              std::move(batch),
              [&](const BatchResult&) { callbacks.fetch_add(1); }));
        }
      });
    }
    for (auto& s : submitters) s.join();
    for (auto& per_thread : tickets) {
      for (auto& ticket : per_thread) {
        ticket->Wait();
        EXPECT_TRUE(ticket->result().all_ok());
      }
    }
    stats = engine->MetricsSnapshotNow();
    if (stats.TotalHistogram("shard0.shard.coalesced").CountAtLeast(2) > 0) {
      break;
    }
  }
  EXPECT_EQ(callbacks.load(),
            rounds_run * uint64_t{kThreads} * kTicketsPerThread);

  EXPECT_EQ(stats.Total("shard0.shard.inserts"), rounds_run * kIdsPerRound);
  EXPECT_EQ(stats.Total("shard0.shard.sub_batches"),
            rounds_run * uint64_t{kThreads} * kTicketsPerThread);
  // Coalescing engaged: strictly fewer service groups than sub-batches,
  // i.e. at least one group merged >= 2 queued sub-batches.
  EXPECT_LT(stats.Total("shard0.shard.coalesced_groups"),
            stats.Total("shard0.shard.sub_batches"));
  EXPECT_GT(stats.TotalHistogram("shard0.shard.coalesced").CountAtLeast(2), 0u)
      << "no group coalesced >= 2 sub-batches in " << rounds_run
      << " burst rounds";
  EXPECT_GE(stats.TotalHistogram("shard0.shard.queue_depth").ApproxMax(), 2u)
      << "the burst never built a backlog";

  // Every row from every round is durable and correct after the burst.
  const uint64_t total = rounds_run * kIdsPerRound;
  RequestBatch verify;
  for (uint64_t id = 0; id < total; ++id) {
    verify.push_back(Request::Get(id));
  }
  BatchResult all = engine->Execute(verify);
  for (uint64_t id = 0; id < total; ++id) {
    ASSERT_OK(all.results[id].status);
    ASSERT_EQ(all.results[id].row, MakeRow(id));
  }
  Cleanup(opts);
}

TEST(ShardAsyncTest, ExecuteWrapperKeepsExactResultOrdering) {
  // Regression: Execute is now Submit + Wait. Its contract is unchanged —
  // results[i] corresponds to batch[i] for every i, across shards, for a
  // mixed batch with interleaved kinds, duplicate-id failures, and misses.
  auto opts = SmallOptions("wrapper", 4, /*workers=*/2);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  RequestBatch mixed;
  // [0, 100): inserts of even ids 0..198.
  for (uint64_t id = 0; id < 200; id += 2) {
    mixed.push_back(Request::Insert(id, MakeRow(id)));
  }
  // [100, 200): gets of the same ids (same batch, after the writes).
  for (uint64_t id = 0; id < 200; id += 2) {
    mixed.push_back(Request::Get(id));
  }
  // [200, 300): gets of odd ids — all NotFound.
  for (uint64_t id = 1; id < 200; id += 2) {
    mixed.push_back(Request::Get(id));
  }
  // [300]: duplicate insert — AlreadyExists exactly here.
  mixed.push_back(Request::Insert(42, MakeRow(42)));
  // [301]: update then [302]: delete then [303]: get of the deleted id.
  Row new_44 = {Value::Int64(44), Value::Varchar("updated-44"),
                Value::Int64(4400)};
  mixed.push_back(Request::Update(44, new_44));
  mixed.push_back(Request::Delete(46));
  mixed.push_back(Request::Get(46));

  BatchResult result = engine->Execute(mixed);
  ASSERT_EQ(result.results.size(), mixed.size());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(result.results[i].status.ok()) << "insert slot " << i;
  }
  for (size_t i = 100; i < 200; ++i) {
    ASSERT_TRUE(result.results[i].status.ok()) << "get slot " << i;
    EXPECT_EQ(result.results[i].row, MakeRow((i - 100) * 2)) << "slot " << i;
  }
  for (size_t i = 200; i < 300; ++i) {
    EXPECT_TRUE(result.results[i].status.IsNotFound()) << "slot " << i;
  }
  EXPECT_TRUE(result.results[300].status.IsAlreadyExists());
  EXPECT_OK(result.results[301].status);
  EXPECT_OK(result.results[302].status);
  EXPECT_TRUE(result.results[303].status.IsNotFound())
      << "get after delete of the same id, same batch";

  // The update really replaced the non-key columns of id 44.
  ASSERT_OK_AND_ASSIGN(Row updated, engine->Get(44));
  EXPECT_EQ(updated[1], new_44[1]);
  EXPECT_EQ(updated[2], new_44[2]);

  // Execute agrees slot-for-slot with SubmitRef + Wait on an identical
  // batch (SubmitRef: `reads` outlives the Wait, no copy).
  RequestBatch reads;
  for (uint64_t id = 0; id < 200; ++id) reads.push_back(Request::Get(id));
  BatchResult via_execute = engine->Execute(reads);
  auto ticket = engine->SubmitRef(reads);
  ticket->Wait();
  const BatchResult& via_submit = ticket->result();
  ASSERT_EQ(via_execute.results.size(), via_submit.results.size());
  for (size_t i = 0; i < via_execute.results.size(); ++i) {
    EXPECT_EQ(via_execute.results[i].status.code(),
              via_submit.results[i].status.code())
        << "slot " << i;
    EXPECT_EQ(via_execute.results[i].row, via_submit.results[i].row)
        << "slot " << i;
    EXPECT_EQ(via_execute.results[i].shard, via_submit.results[i].shard)
        << "slot " << i;
  }
  Cleanup(opts);
}

TEST(ShardAsyncTest, CallbacksRunOnTheShardsWorker) {
  // One shard, one worker: every callback runs on that worker — one thread,
  // never the submitter — and Wait/TryWait still see it returned.
  auto opts = SmallOptions("inline", 1);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  constexpr int kTickets = 20;
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  std::vector<ShardedEngine::TicketPtr> tickets;
  for (int t = 0; t < kTickets; ++t) {
    RequestBatch batch;
    for (uint64_t i = 0; i < 8; ++i) {
      const uint64_t id = static_cast<uint64_t>(t) * 8 + i;
      batch.push_back(Request::Insert(id, MakeRow(id)));
    }
    tickets.push_back(
        engine->Submit(std::move(batch), [&](const BatchResult&) {
          std::lock_guard<std::mutex> lk(mu);
          ran_on.push_back(std::this_thread::get_id());
        }));
  }
  for (auto& ticket : tickets) {
    ticket->Wait();
    EXPECT_TRUE(ticket->TryWait());
    EXPECT_TRUE(ticket->result().all_ok());
  }
  ASSERT_EQ(ran_on.size(), static_cast<size_t>(kTickets));
  EXPECT_NE(ran_on[0], std::this_thread::get_id());
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, ran_on[0]);
  Cleanup(opts);
}

TEST(ShardAsyncTest, CallbackSubmitsFollowUpBatch) {
  // A pipelined client's pattern: each completion submits the next batch
  // from inside its callback, here on a fail-fast bounded engine so the
  // Submit can never block its worker. Every follow-up completes, and each
  // request is served or shed kBusy.
  auto opts = SmallOptions("followup", 2, /*workers=*/2);
  opts.max_queue_depth = 2;
  opts.busy_fail_fast = true;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  constexpr uint64_t kRows = 64;
  RequestBatch load;
  for (uint64_t id = 0; id < kRows; ++id) {
    load.push_back(Request::Insert(id, MakeRow(id)));
  }
  ASSERT_TRUE(engine->Execute(load).all_ok());

  auto gets_from = [](uint64_t first) {
    RequestBatch batch;
    for (uint64_t i = 0; i < 8; ++i) {
      batch.push_back(Request::Get((first + i) % kRows));
    }
    return batch;
  };
  struct Submitted {
    uint64_t first;
    ShardedEngine::TicketPtr ticket;
  };
  const std::thread::id main_thread = std::this_thread::get_id();
  std::mutex mu;
  std::vector<Submitted> follow_ups;
  std::atomic<int> worker_submits{0};

  constexpr int kTickets = 200;
  std::vector<Submitted> primaries;
  for (int t = 0; t < kTickets; ++t) {
    const uint64_t first = static_cast<uint64_t>(t) * 8;
    auto follow_up = [&, first](const BatchResult&) {
      if (std::this_thread::get_id() != main_thread) {
        worker_submits.fetch_add(1);
      }
      ShardedEngine::TicketPtr next = engine->Submit(gets_from(first + 1));
      std::lock_guard<std::mutex> lk(mu);
      follow_ups.push_back({first + 1, std::move(next)});
    };
    primaries.push_back({first, engine->Submit(gets_from(first), follow_up)});
  }
  // A ticket is done only after its callback returned, so once every
  // primary is done every follow-up is in the list.
  for (Submitted& p : primaries) p.ticket->Wait();
  ASSERT_EQ(follow_ups.size(), static_cast<size_t>(kTickets));
  EXPECT_GT(worker_submits.load(), 0) << "no callback ran on a worker";

  uint64_t served = 0, busy = 0;
  auto check = [&](const Submitted& s) {
    s.ticket->Wait();
    const BatchResult& result = s.ticket->result();
    ASSERT_EQ(result.results.size(), 8u);
    for (uint64_t i = 0; i < 8; ++i) {
      const RequestResult& r = result.results[i];
      if (r.status.IsBusy()) {
        ++busy;
        continue;
      }
      ASSERT_OK(r.status);
      EXPECT_EQ(r.row, MakeRow((s.first + i) % kRows));
      ++served;
    }
  };
  for (const Submitted& p : primaries) check(p);
  for (const Submitted& f : follow_ups) check(f);
  EXPECT_EQ(served + busy, uint64_t{2} * kTickets * 8);
  EXPECT_EQ(engine->MetricsSnapshotNow().Total("engine.busy_rejections"),
            busy);
  engine.reset();
  Cleanup(opts);
}

TEST(ShardAsyncTest, EmptyBatchCompletesWithoutWorkers) {
  // A batch with no requests never reaches a shard queue; the ticket (and
  // callback) must still complete — on the submitting thread, before
  // Submit returns.
  auto opts = SmallOptions("empty_batch", 2);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  std::atomic<int> fired{0};
  std::thread::id ran_on;
  auto ticket = engine->Submit(RequestBatch(), [&](const BatchResult& result) {
    EXPECT_TRUE(result.results.empty());
    ran_on = std::this_thread::get_id();
    fired.fetch_add(1);
  });
  EXPECT_TRUE(ticket->TryWait());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(fired.load(), 1);
  const MetricsSnapshot snap = engine->MetricsSnapshotNow();
  EXPECT_EQ(snap.Total("engine.batches"), 1u);
  EXPECT_EQ(snap.Total("engine.requests"), 0u);
  EXPECT_EQ(snap.Total("shard.sub_batches"), 0u);
  Cleanup(opts);
}

// ---- Burst submission -------------------------------------------------------

/// The row a get result carries in either form: its Row, or its image
/// decoded.
Row RowOf(const BatchResult& result, const RequestResult& r) {
  if (!r.image.present) return r.row;
  EXPECT_TRUE(r.row.empty()) << "an image-form get builds no Row";
  auto row = result.image_codec->Decode(result.ImageOf(r));
  EXPECT_OK(row.status());
  return row.ValueOr(Row());
}

/// Counts completions and waits for a number of them.
class Completions {
 public:
  ShardedEngine::CompletionFn Store(std::vector<BatchResult>* results,
                                    size_t i) {
    return [this, results, i](const BatchResult& r) {
      (*results)[i] = r;  // a copy, so images and all
      std::lock_guard<std::mutex> lk(mu_);
      ++done_;
      cv_.notify_all();
    };
  }
  bool WaitFor(size_t n, std::chrono::seconds limit) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, limit, [&] { return done_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t done_ = 0;
};

TEST(ShardAsyncTest, BurstCompletesEveryTicketInPerShardOrder) {
  // Each round is one burst: insert, update, read in both row forms,
  // delete half, read again. Every later entry depends on the earlier ones
  // reaching each shard first.
  auto opts = SmallOptions("burst_order", 4, /*workers=*/2);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  constexpr uint64_t kKeys = 64;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t base = static_cast<uint64_t>(round) * 1000;
    auto updated = [&](uint64_t id) {
      Row row = MakeRow(id);
      row[1] = Value::Varchar("v2-" + std::to_string(id));
      return row;
    };
    RequestBatch inserts, updates, gets, deletes;
    for (uint64_t k = 0; k < kKeys; ++k) {
      inserts.push_back(Request::Insert(base + k, MakeRow(base + k)));
      updates.push_back(Request::Update(base + k, updated(base + k)));
      gets.push_back(Request::Get(base + k));
      if (k % 2 == 0) deletes.push_back(Request::Delete(base + k));
    }
    gets.push_back(Request::Get(base + kKeys));  // never inserted

    std::vector<BatchResult> results(6);
    Completions completions;
    std::vector<ShardedEngine::Submission> burst;
    burst.push_back({inserts, completions.Store(&results, 0)});
    burst.push_back({updates, completions.Store(&results, 1)});
    burst.push_back({gets, completions.Store(&results, 2), RowForm::kRow});
    burst.push_back({gets, completions.Store(&results, 3), RowForm::kImage});
    burst.push_back({deletes, completions.Store(&results, 4)});
    burst.push_back({gets, completions.Store(&results, 5), RowForm::kImage});
    engine->Submit(&burst);
    EXPECT_TRUE(burst.empty());
    ASSERT_TRUE(completions.WaitFor(6, std::chrono::seconds(60)));

    EXPECT_TRUE(results[0].all_ok());
    EXPECT_TRUE(results[1].all_ok()) << "an update overtook its insert";
    EXPECT_TRUE(results[4].all_ok());
    for (int r : {2, 3, 5}) {
      const BatchResult& got = results[r];
      ASSERT_EQ(got.results.size(), kKeys + 1);
      EXPECT_EQ(got.image_codec != nullptr, r != 2);
      for (uint64_t k = 0; k <= kKeys; ++k) {
        const RequestResult& rr = got.results[k];
        const bool deleted = r == 5 && k % 2 == 0;
        if (k == kKeys || deleted) {
          EXPECT_TRUE(rr.status.IsNotFound()) << "result " << r << " key " << k;
          EXPECT_FALSE(rr.image.present);
          EXPECT_TRUE(rr.row.empty());
          continue;
        }
        ASSERT_OK(rr.status);
        EXPECT_EQ(rr.image.present, r != 2);
        EXPECT_EQ(RowOf(got, rr), updated(base + k))
            << "result " << r << " key " << k;
      }
    }
  }
  engine.reset();
  Cleanup(opts);
}

TEST(ShardAsyncTest, BurstWakesAWorkerWhoseQueueHoldsAGroup) {
  // One shard, blocking backpressure, and a burst several times deeper than
  // the queue. The burst blocks on the full queue until the worker drains
  // it, so it can finish only if a push woke the worker before the burst
  // ended: at max_coalesce_window queued sub-batches, or at every push when
  // max_queue_depth is below the window.
  struct Case {
    size_t max_queue_depth;
    size_t max_coalesce_window;
  };
  for (const Case& c : {Case{4, 4}, Case{2, 8}}) {
    auto opts = SmallOptions("burst_wake", 1, 1);
    opts.max_queue_depth = c.max_queue_depth;
    opts.busy_fail_fast = false;
    opts.max_coalesce_window = c.max_coalesce_window;
    ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
    ASSERT_OK(engine->Insert(7, MakeRow(7)));

    const size_t entries = 3 * c.max_coalesce_window + 1;
    std::vector<BatchResult> results(entries);
    Completions completions;
    std::atomic<bool> returned{false};
    std::atomic<bool> first_ran_after_return{true};
    std::vector<ShardedEngine::Submission> burst;
    for (size_t i = 0; i < entries; ++i) {
      ShardedEngine::CompletionFn store = completions.Store(&results, i);
      if (i == 0) {
        store = [&, store](const BatchResult& r) {
          first_ran_after_return = returned.load();
          store(r);
        };
      }
      burst.push_back({{Request::Get(7)}, std::move(store), RowForm::kImage});
    }
    std::thread submitter([&] {
      engine->Submit(&burst);
      returned = true;
    });
    if (!completions.WaitFor(entries, std::chrono::seconds(60))) {
      // The burst is stuck behind a full queue whose worker sleeps; nothing
      // can unblock it, so end the process rather than hang.
      std::fprintf(stderr,
                   "burst of %zu entries stuck at depth %zu, window %zu\n",
                   entries, c.max_queue_depth, c.max_coalesce_window);
      std::_Exit(1);
    }
    submitter.join();
    EXPECT_FALSE(first_ran_after_return.load())
        << "the first entry was served only after the burst returned";
    for (const BatchResult& r : results) {
      ASSERT_EQ(r.results.size(), 1u);
      ASSERT_OK(r.results[0].status);
      EXPECT_EQ(RowOf(r, r.results[0]), MakeRow(7));
    }
    engine.reset();
    Cleanup(opts);
  }
}

TEST(ShardAsyncTest, EngineDestroyedRightAfterABurstLeavesNoTicketPending) {
  auto opts = SmallOptions("burst_close", 4, /*workers=*/2);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  RequestBatch load;
  for (uint64_t id = 0; id < 256; ++id) {
    load.push_back(Request::Insert(id, MakeRow(id)));
  }
  ASSERT_TRUE(engine->Execute(load).all_ok());

  constexpr size_t kEntries = 64;
  std::atomic<size_t> done{0}, ok{0};
  std::vector<ShardedEngine::Submission> burst;
  for (size_t i = 0; i < kEntries; ++i) {
    RequestBatch gets;
    for (uint64_t k = 0; k < 16; ++k) {
      gets.push_back(Request::Get((i * 16 + k) % 256));
    }
    burst.push_back({std::move(gets),
                     [&](const BatchResult& r) {
                       if (r.all_ok()) ok.fetch_add(1);
                       done.fetch_add(1);
                     },
                     i % 2 == 0 ? RowForm::kImage : RowForm::kRow});
  }
  engine->Submit(&burst);
  engine.reset();  // drains every queued sub-batch, callbacks included
  EXPECT_EQ(done.load(), kEntries);
  EXPECT_EQ(ok.load(), kEntries);
  Cleanup(opts);
}

}  // namespace
}  // namespace nblb
