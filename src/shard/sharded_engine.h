// ShardedEngine: the serving layer — N shards, hash routing by key, a
// fixed worker pool draining per-shard queues, and a submit/completion
// front end.
//
// Request lifecycle (see src/shard/README.md for the long version):
//
//   client thread                          worker thread (owns shard s)
//   ─────────────                          ────────────────────────────
//   Submit(batch, fn) → Ticket
//     hash every id to its              ── HashRouter: a pure function of
//       home shard                         the id, no table, no lock
//     split into per-shard
//       sub-batches
//     enqueue + wake owner  ──────────────▶ coalesce up to `window` queued
//     return Ticket                          sub-batches into one service
//       (caller keeps going)                 group, run ops on shard
//                                            (single-writer), write
//                                            results[i] slots
//                           ◀────────────── last worker drops pending to 0:
//   Ticket::Wait()/TryWait()                 runs the callback here, then
//     or completion fn fires                 marks the ticket done
//
// The blocking Execute(batch) is a thin wrapper — Submit + Wait — with the
// same results and result ordering.
//
// Row forms: a batch's kGet results carry a decoded Row (RowForm::kRow,
// what Execute and Submit give) or the stored image (RowForm::kImage, which
// a Submission picks): the worker checks the tuple under its page's pin
// exactly as DecodeInto would and copies its bytes into the result, and
// the network encoder transcodes them into the reply with no Row between.
//
// Burst submission: Submit(&burst) enqueues several batches in order and
// wakes each worker that got work once, at the end, instead of once per
// sub-batch. A push that leaves its queue holding a group's worth
// (max_coalesce_window sub-batches, or any depth when max_queue_depth is
// below that) wakes the owner at once, so a burst never grows a sleeping
// worker's queue past one group and can never block on, or be shed by, a
// full queue whose worker sleeps.
//
// Routing: a key's home shard is HashRouter(num_shards).Route(key), fixed
// by the key alone, so it survives a reopen with no routing state to
// persist and the submit path reads no shared mutable state. The per-tuple
// TableRouter and the §4.2 EmbeddedRouter stay in semid/ as the paper's
// comparison; the engine does not take them (§4.2: per-tuple tables "can
// easily become a resource and performance bottleneck").
//
// Adaptive batching: each shard queue carries a coalesce window in
// [1, max_coalesce_window]. A worker serves up to
// `window` queued sub-batches as ONE group — consecutive kGets are merged
// across sub-batch boundaries into single Shard::GetBatch calls (longer
// B+Tree descent sharing and preadv runs), still segmented at every write
// so per-shard order is preserved. The window doubles when the backlog
// exceeds it and halves when the queue runs near-empty: Nagle-style,
// throughput under load, latency when idle. A worker never holds a
// backlog back to wait for more.
//
// Threading model: every shard is statically owned by exactly one worker
// (worker = shard % num_workers), so shard-local state (Table, B+Tree,
// IndexCache, buffer pool) is single-threaded by construction and needs no
// locks. The owning worker also runs the shard's periodic checkpoints and
// its flush passes (Shard::FlushIfDue, after each service group), so no
// other thread touches a shard's pool while the engine runs: Open hands
// each shard to its worker at thread start, and the destructor takes it
// back at join (the buffer pool and its DiskManager have one owner at a
// time and no locks; see storage/buffer_pool.h and
// storage/disk_manager.h). The worker does its shards' disk I/O itself, on
// either backend. The only cross-thread state is the shard queues and the
// atomic ticket bookkeeping. Completion callbacks run on the worker that
// retires a ticket's last sub-batch, so the engine starts no threads but
// its workers.
//
// Counters: read them through MetricsSnapshotNow() ("engine.*",
// "trace.*" and every shard's "shard<i>.*"); subtract two snapshots to
// isolate a phase.
//
// Any number of client threads may call Submit/Execute concurrently.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "semid/routing.h"
#include "shard/request.h"
#include "shard/shard.h"

namespace nblb {

/// \brief Engine-wide configuration.
struct ShardedEngineOptions {
  uint32_t num_shards = 4;
  /// Worker threads; 0 means one per shard. Shards are statically assigned
  /// worker = shard_id % num_workers.
  uint32_t num_workers = 0;
  /// Shard i's backing file is "<path_prefix>.shard<i>.db". With
  /// truncate_on_open (default), existing files under this prefix are
  /// removed and recreated on Open — use a distinct prefix per engine.
  std::string path_prefix = "/tmp/nblb_engine";
  /// Forwarded to ShardOptions::truncate: false refuses to open a prefix
  /// whose shard files already exist instead of destroying them.
  bool truncate_on_open = true;
  size_t page_size = kDefaultPageSize;
  /// Per-shard buffer pool capacity (scale-out model: each shard models a
  /// node with its own fixed RAM budget).
  size_t buffer_pool_frames_per_shard = 4096;
  /// O_DIRECT shard files (see DiskManager): serving misses cost real I/O.
  bool direct_io = false;
  /// Upper bound of each shard queue's adaptive coalesce window: the most
  /// queued sub-batches a worker merges into one service group (see the
  /// file comment). The window starts at 1 and never drops below it; Open
  /// rejects 0.
  size_t max_coalesce_window = 32;
  /// Flush-pass cadence (µs), forwarded to every shard (see
  /// ShardOptions::flusher_interval_us): the owning worker runs a pass
  /// after a service group once this long has passed since the last one.
  /// 0 disables passes.
  uint64_t flusher_interval_us = 0;
  /// Backpressure: bound on each shard queue's depth in sub-batches. 0
  /// (default) keeps the queues unbounded, as before. With a bound, an
  /// over-limit Submit either blocks until the owning worker drains below
  /// the limit (default) or fails fast with kBusy results for the affected
  /// requests (busy_fail_fast) — so an unbounded open-loop client can no
  /// longer grow the queues without limit.
  size_t max_queue_depth = 0;
  /// With max_queue_depth: true = fail over-limit sub-batches immediately
  /// with Status::Busy per request; false = block the submitter.
  bool busy_fail_fast = false;
  /// Sampled request tracing (see obs/trace.h): every Nth sub-batch across
  /// the engine carries a TraceContext recording per-phase spans (queue
  /// wait, service, device wait, copy, ...) into the "trace.*" histograms
  /// of DumpMetrics(). 0 disables tracing; NBLB_OBS_OFF in the environment
  /// forces it off regardless.
  uint64_t trace_sample_every = 0;
  /// Durability (forwarded to ShardOptions::wal_enabled): every shard gets
  /// a superblock sidecar + write-ahead log, each service group is group-
  /// committed before its tickets complete, and Open with
  /// truncate_on_open=false recovers existing shards (clean reattach or
  /// crash recovery + WAL replay). See storage/wal.h and shard.h.
  bool wal_enabled = false;
  /// With wal_enabled: the owning worker runs a durable checkpoint on each
  /// shard every N service groups, bounding WAL length and replay time.
  /// 0 disables periodic checkpoints (only open/close publish).
  uint64_t checkpoint_every_groups = 0;
  Schema schema;
  TableOptions table_options;
};

/// \brief Owns the shards and the worker pool.
class ShardedEngine {
 public:
  /// \brief Fires once every request in the batch has a result, on the
  /// thread that retires the batch's last sub-batch: the engine worker
  /// that served it or, when the submitter retired it itself (an empty
  /// batch, or the last sub-batch was rejected kBusy), the submitting
  /// thread inside Submit. Tickets whose requests all hash to
  /// one shard complete in that shard's queue order. The BatchResult
  /// reference is valid for the duration of the callback; Ticket::result()
  /// holds the same object afterwards.
  ///
  /// The callback must not block on the engine: no Execute, no Wait on a
  /// ticket, and no Submit that can block on a full queue
  /// (max_queue_depth set with busy_fail_fast = false). Its worker serves
  /// none of its shards while it runs, so keep it short: hand slow work
  /// to another thread.
  using CompletionFn = std::function<void(const BatchResult&)>;

  /// \brief Handle to one submitted batch. Created by Submit; completion is
  /// observable three ways: the CompletionFn, Wait(), or TryWait().
  class Ticket {
   public:
    /// \brief Blocks until every request has a result and the completion
    /// callback (if any) has returned. Idempotent — calling after
    /// completion returns immediately.
    void Wait();
    /// \brief Non-blocking probe: true iff the batch has completed (and
    /// the callback, if any, has returned).
    bool TryWait();
    /// \brief The batch's results, in submission order. Valid only after
    /// Wait() returned or TryWait() returned true.
    const BatchResult& result() const { return result_; }
    /// \brief Moves the results out (same validity rule as result()).
    BatchResult TakeResult() { return std::move(result_); }

   private:
    friend class ShardedEngine;
    /// Only the engine can name it, so only the engine makes tickets.
    struct Key {
      explicit Key() = default;
    };

   public:
    /// For std::make_shared inside the engine: ticket and control block
    /// are one allocation.
    explicit Ticket(Key) {}

   private:
    /// Releases the batch and the callback closure (nothing reads them
    /// after completion), then flips done_ and wakes waiters.
    void MarkDone();

    RowForm form_ = RowForm::kRow;  // how kGet results carry their rows

    RequestBatch owned_batch_;               // Submit moves the batch here
    const RequestBatch* batch_ = nullptr;    // owned_batch_, or the
                                             // caller's batch for
                                             // Execute/SubmitRef; null
                                             // once done
    /// The batch's indexes grouped by home shard (SubmitTicket), one
    /// counting pass into one array; each SubBatch holds its range.
    std::vector<uint32_t> by_shard_;
    BatchResult result_;
    CompletionFn on_complete_;
    /// Sub-batches still running. Decremented with acq_rel: the release
    /// half publishes this worker's result writes, the acquire half makes
    /// every earlier worker's writes visible to whichever worker ends up
    /// last — which then completes the ticket, extending the
    /// happens-before chain from all result slots to the callback/waiter.
    std::atomic<uint32_t> pending_{0};
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  /// \brief One batch of a burst (Submit(std::vector<Submission>*)).
  struct Submission {
    RequestBatch batch;
    CompletionFn on_complete;
    RowForm form = RowForm::kRow;
  };

  /// \brief Builds shards and starts workers. Requests are routed by
  /// HashRouter(num_shards): RequestResult::shard is the key's home shard.
  static Result<std::unique_ptr<ShardedEngine>> Open(
      ShardedEngineOptions options);

  /// \brief Joins the workers. Every submitted ticket completes first; must
  /// not race with concurrent Submit/Execute calls, including Submits made
  /// from completion callbacks — wait for those tickets before destroying.
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- Serving ------------------------------------------------------------

  /// \brief Asynchronous submission: hashes every key to its home shard on
  /// the calling thread, enqueues
  /// per-shard sub-batches, and returns immediately. `on_complete` (may be
  /// nullptr) fires once every request has a result, on the thread and
  /// under the rules CompletionFn describes; the returned Ticket supports
  /// Wait()/TryWait() regardless. Thread safe, and callable from a
  /// completion callback when it cannot block (see CompletionFn).
  /// Results are in batch order; per-shard execution preserves batch order,
  /// but requests on different shards execute in parallel with no mutual
  /// ordering.
  TicketPtr Submit(RequestBatch batch, CompletionFn on_complete = nullptr);

  /// \brief As Submit, but references the caller-owned batch instead of
  /// copying it. `batch` must stay alive and unmodified until the ticket
  /// completes (callback returned / Wait() returned / TryWait() true) —
  /// the natural fit for drivers that keep a stable vector of batches in
  /// flight (see workload/replay.h's open-loop driver).
  TicketPtr SubmitRef(const RequestBatch& batch,
                      CompletionFn on_complete = nullptr);

  /// \brief Burst submission: submits every entry of `*burst` as Submit
  /// would, in order (so per-shard order holds across the burst), each with
  /// its own callback and row form, then empties the vector (its capacity
  /// stays). Wakes each worker that got work once, after the last entry,
  /// except that a push leaving a queue a group's worth deep wakes its
  /// worker at once (see the file comment). Returns no tickets: completion
  /// is observed through the callbacks. Thread safe; the same callback
  /// rules as Submit.
  void Submit(std::vector<Submission>* burst);

  /// \brief Blocking convenience: Submit + Wait, without copying the batch.
  /// Identical results and result ordering to the pre-async Execute.
  BatchResult Execute(const RequestBatch& batch);

  /// \brief Single-op conveniences (one-element batches; for hot loops,
  /// batch yourself — the queue round-trip is paid per batch × shard).
  Status Insert(uint64_t id, Row row);
  Result<Row> Get(uint64_t id);
  Result<Row> GetProjected(uint64_t id, std::vector<size_t> projection);
  Status Update(uint64_t id, Row row);
  Status Delete(uint64_t id);

  // ---- Topology -----------------------------------------------------------

  /// \brief The options the engine was opened with (the network front end
  /// derives its global admission cap from max_queue_depth).
  const ShardedEngineOptions& options() const { return options_; }

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }
  Shard* shard(uint32_t i) { return shards_[i].get(); }

  // ---- Metrics ------------------------------------------------------------

  /// \brief One merged snapshot over every layer: "engine.*" and "trace.*"
  /// from the engine's own registry plus each shard's Database registry
  /// ("shard<i>.disk.*", "shard<i>.buffer_pool.*", "shard<i>.shard.*",
  /// "shard<i>.wal.*"). The one read API for the engine's counters:
  /// MetricsSnapshot::Total sums a name over the shards, and subtracting an
  /// earlier snapshot isolates a phase. Exact once the workers are idle.
  MetricsSnapshot MetricsSnapshotNow() const;

  /// \brief MetricsSnapshotNow() serialized as one JSON document.
  std::string DumpMetrics() const { return MetricsSnapshotNow().ToJson(); }

  /// \brief The trace sink (per-phase histograms + recent-trace ring).
  const TraceAggregator& tracer() const { return *tracer_; }

 private:
  /// The fragment of a batch bound for one shard.
  struct SubBatch {
    TicketPtr ticket;
    /// Range of ticket->by_shard_ holding this shard's request indexes
    /// (into ticket->batch_, ascending).
    uint32_t begin = 0;
    uint32_t end = 0;
    std::chrono::steady_clock::time_point enqueued;
    /// Non-null iff this sub-batch was trace-sampled. Stamped by the
    /// submitter before queue publication; written only by the serving
    /// worker afterwards (single-writer — see obs/trace.h).
    std::unique_ptr<TraceContext> trace;
  };

  /// One per shard; MPSC — many submitters push, one worker pops.
  struct ShardQueue {
    std::mutex mu;
    std::deque<SubBatch> work;
    /// Mirrors work.size() so the owning worker skips an empty queue
    /// without taking `mu`.
    std::atomic<size_t> size{0};
    /// Adaptive coalesce target, clamped to [1, max_coalesce_window].
    /// Touched only by the owning worker.
    size_t window = 1;
    /// Service groups since the last periodic checkpoint (wal_enabled +
    /// checkpoint_every_groups). Touched only by the owning worker.
    uint64_t groups_since_checkpoint = 0;
    /// Bytes to reserve per get in a RowForm::kImage result's image buffer:
    /// the last get run's mean image size plus a quarter. Touched only by
    /// the owning worker.
    size_t image_bytes_hint = 0;
    /// Signaled by the owning worker after each pop when max_queue_depth
    /// bounds this queue; blocked submitters wait here for space.
    std::condition_variable space_cv;
  };

  /// One per worker thread.
  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<uint64_t> queued{0};  // sub-batches across owned shards
    std::vector<uint32_t> shards;     // owned shard ids
    // Owner-thread buffers, cleared but never freed between groups: the
    // service group being run, and the current get run's ids and result
    // slots (RunGroup).
    std::vector<SubBatch> group;
    std::vector<uint64_t> run_ids;
    std::vector<RowSlot> run_slots;  // each a Row or an image destination
  };

  explicit ShardedEngine(uint32_t num_shards) : router_(num_shards) {}

  /// Shared by every Submit form and Execute: routes, fans out, pre-arms
  /// pending_. Wakes each sub-batch's worker at once when `owed` is null;
  /// else only when its queue holds burst_wake_depth_ sub-batches, setting
  /// bit (worker % 64) of *owed for the others.
  void SubmitTicket(const TicketPtr& ticket, uint64_t* owed = nullptr);
  /// Wakes `worker` if it sleeps (or is about to) with work queued.
  static void WakeWorker(Worker* worker);
  /// Counts the batch, runs the callback on this thread, then marks the
  /// ticket done.
  void FinishTicket(const TicketPtr& ticket);
  /// Worker thread `index`: names itself nblb-worker<index>, then serves
  /// its shards until stopped.
  void WorkerLoop(Worker* worker, uint32_t index);
  /// Pops up to `window` sub-batches off shard `sid`'s queue into
  /// worker->group, adapts the window, and serves them as one group.
  /// Returns true if anything ran.
  bool ServeShard(Worker* worker, uint32_t sid);
  void RunGroup(Worker* worker, Shard* shard, ShardQueue* queue);

  ShardedEngineOptions options_;
  const HashRouter router_;  // over num_shards
  /// A burst's push wakes the queue's worker at once from this depth on:
  /// max_coalesce_window, or 1 when max_queue_depth is set below it.
  size_t burst_wake_depth_ = 1;
  /// The table codec that reads RowForm::kImage results (every shard has
  /// the same schema); BatchResult::image_codec points here.
  const RowCodec* image_codec_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};

  // "engine.*" counters (relaxed; see shard_stats.h for why).
  std::atomic<uint64_t> batches_{0};   // completed, Submit and Execute alike
  std::atomic<uint64_t> requests_{0};  // requests in completed batches
  std::atomic<uint64_t> async_submits_{0};  // Submits with a callback
  std::atomic<uint64_t> busy_rejections_{0};  // kBusy from max_queue_depth

  /// True iff trace_sample_every > 0 and NBLB_OBS_OFF is not set (resolved
  /// once at Open). With tracing off, Submit skips the sampler entirely.
  bool tracing_ = false;
  std::atomic<uint64_t> trace_counter_{0};  // sampler: 1-in-N sub-batches
  std::unique_ptr<TraceAggregator> tracer_;
  /// Engine-level registry ("engine.*", "trace.*"). Declared after the
  /// atomics/tracer it points into so it is destroyed first.
  std::unique_ptr<MetricsRegistry> metrics_;
};

}  // namespace nblb
