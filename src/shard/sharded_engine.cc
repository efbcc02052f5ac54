#include "shard/sharded_engine.h"

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/logging.h"
#include "obs/event_ring.h"

namespace nblb {

namespace {

/// The smallest power of two >= n.
size_t CeilPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    ShardedEngineOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.max_coalesce_window == 0) {
    return Status::InvalidArgument("max_coalesce_window must be >= 1");
  }
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine(options.num_shards));
  engine->options_ = options;
  engine->burst_wake_depth_ =
      options.max_queue_depth > 0 &&
              options.max_queue_depth < options.max_coalesce_window
          ? 1
          : options.max_coalesce_window;

  // Observability: the engine-level registry covers the engine counters and
  // the trace aggregator; per-shard Database registries are folded in at
  // snapshot time (MetricsSnapshotNow). Tracing is resolved once here —
  // NBLB_OBS_OFF wins over the option.
  engine->tracing_ = options.trace_sample_every > 0 && ObsEnabled();
  engine->tracer_.reset(new TraceAggregator());
  engine->metrics_.reset(new MetricsRegistry());
  engine->metrics_->RegisterCounter("engine.batches", &engine->batches_);
  engine->metrics_->RegisterCounter("engine.requests", &engine->requests_);
  engine->metrics_->RegisterCounter("engine.async_submits",
                                    &engine->async_submits_);
  engine->metrics_->RegisterCounter("engine.busy_rejections",
                                    &engine->busy_rejections_);
  engine->tracer_->RegisterMetrics(engine->metrics_.get(), "trace.");

  std::vector<std::string> created_paths;
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    ShardOptions so;
    so.path = options.path_prefix + ".shard" + std::to_string(i) + ".db";
    so.truncate = options.truncate_on_open;
    so.page_size = options.page_size;
    so.buffer_pool_frames = options.buffer_pool_frames_per_shard;
    so.direct_io = options.direct_io;
    so.flusher_interval_us = options.flusher_interval_us;
    so.wal_enabled = options.wal_enabled;
    so.schema = options.schema;
    so.table_options = options.table_options;
    // Record the path BEFORE attempting the open: a Shard::Open that
    // creates the file and then fails a later step must still get its
    // debris removed below. The only paths NOT recorded are pre-existing
    // files under the guard (truncate_on_open=false) — a guard trip must
    // never delete the data it is guarding. Under truncate the open
    // destroys a pre-existing file anyway, so what's left after a failure
    // is this attempt's debris and is recorded for cleanup.
    std::string path = so.path;
    std::error_code ec;
    bool preexisting = std::filesystem::exists(path, ec);
    // Probe failure: conservatively assume the file exists — cleanup must
    // never delete something it cannot prove this attempt created.
    if (ec) preexisting = true;
    if (!preexisting || options.truncate_on_open) {
      created_paths.push_back(path);
      if (options.wal_enabled) {
        // Durability sidecars are this attempt's debris too.
        created_paths.push_back(Superblock::PathFor(path));
        created_paths.push_back(Wal::PathFor(path));
      }
    }
    auto shard_result = Shard::Open(i, std::move(so));
    if (!shard_result.ok()) {
      // Remove every file this attempt created so a failed open leaves no
      // debris — in particular, a guarded open (truncate_on_open=false)
      // that trips on shard k must not leave fresh empty files that would
      // then block the operator's own retry. Shards are released (files
      // closed) before the unlink.
      engine->shards_.clear();
      for (const std::string& p : created_paths) std::remove(p.c_str());
      return shard_result.status();
    }
    engine->shards_.push_back(std::move(*shard_result));
    engine->queues_.push_back(std::make_unique<ShardQueue>());
  }

  engine->image_codec_ = &engine->shards_[0]->table()->row_codec();

  uint32_t num_workers =
      options.num_workers == 0 ? options.num_shards : options.num_workers;
  if (num_workers > options.num_shards) num_workers = options.num_shards;
  for (uint32_t w = 0; w < num_workers; ++w) {
    engine->workers_.push_back(std::make_unique<Worker>());
  }
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    engine->workers_[s % num_workers]->shards.push_back(s);
  }
  for (uint32_t w = 0; w < num_workers; ++w) {
    Worker* worker = engine->workers_[w].get();
    worker->thread = std::thread([engine_ptr = engine.get(), worker, w] {
      engine_ptr->WorkerLoop(worker, w);
    });
  }
  return engine;
}

ShardedEngine::~ShardedEngine() {
  // Workers drain their queues before exiting (stop is honored only at
  // queued == 0), so every in-flight ticket completes, callback included.
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lk(worker->mu);
    }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

// ---- Ticket -----------------------------------------------------------------

void ShardedEngine::Ticket::Wait() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return done_; });
}

bool ShardedEngine::Ticket::TryWait() {
  std::lock_guard<std::mutex> lk(mu_);
  return done_;
}

void ShardedEngine::Ticket::MarkDone() {
  // A completed ticket only serves its result: drop the request payloads
  // and the callback closure so a caller holding TicketPtrs for later
  // harvesting doesn't pin every submitted row and captured state.
  on_complete_ = nullptr;
  batch_ = nullptr;
  RequestBatch().swap(owned_batch_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    done_ = true;
  }
  cv_.notify_all();
}

// ---- Submission -------------------------------------------------------------

ShardedEngine::TicketPtr ShardedEngine::Submit(RequestBatch batch,
                                               CompletionFn on_complete) {
  TicketPtr ticket = std::make_shared<Ticket>(Ticket::Key());
  ticket->owned_batch_ = std::move(batch);
  ticket->batch_ = &ticket->owned_batch_;
  ticket->on_complete_ = std::move(on_complete);
  SubmitTicket(ticket);
  return ticket;
}

ShardedEngine::TicketPtr ShardedEngine::SubmitRef(const RequestBatch& batch,
                                                  CompletionFn on_complete) {
  TicketPtr ticket = std::make_shared<Ticket>(Ticket::Key());
  ticket->batch_ = &batch;  // caller guarantees lifetime until completion
  ticket->on_complete_ = std::move(on_complete);
  SubmitTicket(ticket);
  return ticket;
}

void ShardedEngine::Submit(std::vector<Submission>* burst) {
  uint64_t owed = 0;  // bit (worker % 64) per worker owed a wake
  for (Submission& entry : *burst) {
    TicketPtr ticket = std::make_shared<Ticket>(Ticket::Key());
    ticket->owned_batch_ = std::move(entry.batch);
    ticket->batch_ = &ticket->owned_batch_;
    ticket->on_complete_ = std::move(entry.on_complete);
    ticket->form_ = entry.form;
    SubmitTicket(ticket, &owed);
  }
  burst->clear();
  // With more than 64 workers a bit stands for several; waking one that
  // got no work from this burst only makes it recheck its queues.
  for (size_t w = 0; w < workers_.size(); ++w) {
    if ((owed >> (w % 64)) & 1) WakeWorker(workers_[w].get());
  }
}

BatchResult ShardedEngine::Execute(const RequestBatch& batch) {
  // Thin blocking wrapper over the async path: submit-by-reference (the
  // caller's batch outlives the Wait) + Wait.
  TicketPtr ticket = SubmitRef(batch);
  ticket->Wait();
  return ticket->TakeResult();
}

void ShardedEngine::SubmitTicket(const TicketPtr& ticket, uint64_t* owed) {
  if (ticket->on_complete_) {
    async_submits_.fetch_add(1, std::memory_order_relaxed);
  }
  const RequestBatch& batch = *ticket->batch_;
  BatchResult& out = ticket->result_;
  out.results.resize(batch.size());
  if (ticket->form_ == RowForm::kImage) {
    // One buffer per shard: each has a single writer, the shard's worker.
    out.images.resize(num_shards());
    out.image_codec = image_codec_;
  }

  // Phase 1 — hash every key to its home shard on the caller's thread and
  // group the indexes by shard with one counting pass, into the one array
  // the ticket owns: its first num + 1 entries become the shard bounds
  // (shard s's indexes sit at [bounds[s], bounds[s + 1]) of the rest), in
  // batch order. HashRouter::Route cannot fail.
  const uint32_t n = static_cast<uint32_t>(batch.size());
  const uint32_t num = num_shards();
  std::vector<uint32_t>& by_shard = ticket->by_shard_;
  by_shard.assign(num + 1 + n, 0);
  uint32_t* const bounds = by_shard.data();
  uint32_t* const indexes = bounds + num + 1;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t home = *router_.Route(batch[i].id);
    out.results[i].shard = home;
    ++bounds[home + 1];
  }
  for (uint32_t s = 0; s < num; ++s) bounds[s + 1] += bounds[s];
  for (uint32_t i = 0; i < n; ++i) {
    indexes[bounds[out.results[i].shard]++] = i;
  }
  // Placing advanced each shard's start to its end: shift them back.
  for (uint32_t s = num; s > 0; --s) bounds[s] = bounds[s - 1];
  bounds[0] = 0;

  // Phase 2 — fan out one sub-batch per involved shard. pending_ is armed
  // before the first enqueue: a worker may finish the first sub-batch while
  // later ones are still being pushed.
  uint32_t involved = 0;
  for (uint32_t s = 0; s < num; ++s) {
    if (bounds[s + 1] > bounds[s]) ++involved;
  }
  if (involved == 0) {
    // Empty batch: complete immediately, on this thread.
    FinishTicket(ticket);
    return;
  }
  ticket->pending_.store(involved, std::memory_order_relaxed);

  const auto now = std::chrono::steady_clock::now();
  const size_t max_depth = options_.max_queue_depth;
  for (uint32_t s = 0; s < num; ++s) {
    if (bounds[s + 1] == bounds[s]) continue;
    const uint32_t begin = num + 1 + bounds[s];
    const uint32_t end = num + 1 + bounds[s + 1];
    // 1-in-N sampler, decided per sub-batch off the queue lock. The context
    // is stamped with the shared enqueue timestamp here and handed to the
    // serving worker through the queue mutex (single-writer handoff — see
    // obs/trace.h).
    std::unique_ptr<TraceContext> trace;
    if (tracing_) {
      const uint64_t n =
          trace_counter_.fetch_add(1, std::memory_order_relaxed);
      if (n % options_.trace_sample_every == 0) {
        trace.reset(new TraceContext());
        trace->trace_id = n;
        trace->enqueued = now;
      }
    }
    ShardQueue* queue = queues_[s].get();
    const size_t owner_index = s % workers_.size();
    Worker* owner = workers_[owner_index].get();
    size_t depth;
    {
      std::unique_lock<std::mutex> lk(queue->mu);
      if (max_depth > 0 && queue->work.size() >= max_depth) {
        const uint64_t full_depth = queue->work.size();
        if (options_.busy_fail_fast) {
          // Fail fast: every request bound for this shard completes kBusy
          // without ever touching the queue. The sub-batch's pending_ slot
          // is retired here, so the ticket still completes normally.
          lk.unlock();
          RecordFlightEvent(FlightEvent::kBusyReject, s, full_depth);
          busy_rejections_.fetch_add(end - begin, std::memory_order_relaxed);
          for (uint32_t k = begin; k < end; ++k) {
            out.results[by_shard[k]].status =
                Status::Busy("shard " + std::to_string(s) +
                             " queue full (max_queue_depth)");
          }
          if (ticket->pending_.fetch_sub(1, std::memory_order_acq_rel) ==
              1) {
            FinishTicket(ticket);
          }
          continue;
        }
        // Blocking backpressure: wait for the owning worker to drain below
        // the bound. The wait releases queue->mu, so the worker's pops make
        // progress; ~ShardedEngine never runs concurrently with Submit, so
        // no shutdown wakeup is needed here.
        RecordFlightEvent(FlightEvent::kCapacityWait, s, full_depth);
        queue->space_cv.wait(
            lk, [&] { return queue->work.size() < max_depth; });
      }
      SubBatch sub;
      sub.ticket = ticket;
      sub.begin = begin;
      sub.end = end;
      sub.enqueued = now;
      sub.trace = std::move(trace);
      queue->work.push_back(std::move(sub));
      // Both counters inside the critical section so neither can lag
      // behind a concurrent pop: the pop of this element takes the same
      // mutex, so its decrements always follow these adds — a lagging add
      // would otherwise let the matching fetch_sub wrap the count.
      queue->size.fetch_add(1, std::memory_order_release);
      owner->queued.fetch_add(1, std::memory_order_release);
      depth = queue->work.size();
    }
    if (owed == nullptr || depth >= burst_wake_depth_) {
      WakeWorker(owner);
    } else {
      *owed |= uint64_t{1} << (owner_index % 64);
    }
  }
}

void ShardedEngine::WakeWorker(Worker* worker) {
  {
    // Empty critical section: pairs with the worker's predicate check so
    // the queued increment cannot fall into a missed-wakeup window.
    std::lock_guard<std::mutex> lk(worker->mu);
  }
  worker->cv.notify_one();
}

void ShardedEngine::FinishTicket(const TicketPtr& ticket) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  requests_.fetch_add(ticket->batch_->size(), std::memory_order_relaxed);
  // Inline on the finishing thread: a Wait()er wakes only after the
  // callback returned.
  if (ticket->on_complete_) ticket->on_complete_(ticket->result_);
  ticket->MarkDone();
}

// ---- Workers ----------------------------------------------------------------

void ShardedEngine::WorkerLoop(Worker* worker, uint32_t index) {
  char name[16];
  std::snprintf(name, sizeof(name), "nblb-worker%u", index);
  pthread_setname_np(pthread_self(), name);
  for (;;) {
    bool ran_any = false;
    for (uint32_t sid : worker->shards) {
      while (ServeShard(worker, sid)) ran_any = true;
    }
    if (ran_any) continue;
    std::unique_lock<std::mutex> lk(worker->mu);
    worker->cv.wait(lk, [this, worker] {
      return stop_.load(std::memory_order_acquire) ||
             worker->queued.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        worker->queued.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

bool ShardedEngine::ServeShard(Worker* worker, uint32_t sid) {
  ShardQueue* queue = queues_[sid].get();
  Shard* shard = shards_[sid].get();

  if (queue->size.load(std::memory_order_acquire) == 0) return false;

  std::vector<SubBatch>* group = &worker->group;
  group->clear();
  size_t depth;
  {
    std::lock_guard<std::mutex> lk(queue->mu);
    depth = queue->work.size();
    if (depth == 0) return false;
    const size_t take = std::min(depth, queue->window);
    for (size_t i = 0; i < take; ++i) {
      group->push_back(std::move(queue->work.front()));
      queue->work.pop_front();
    }
    queue->size.fetch_sub(take, std::memory_order_release);
    worker->queued.fetch_sub(take, std::memory_order_relaxed);
    if (options_.max_queue_depth > 0) {
      // Backpressured submitters wait on space_cv under queue->mu (held
      // here), so this wakeup cannot be lost.
      queue->space_cv.notify_all();
    }
    // Adapt. Grow only on STRICT excess — backlog beyond what this group
    // takes proves deeper coalescing has material waiting (depth == window
    // with nothing behind it must not grow, or a lone blocked client
    // ratchets the window up). Shrink when the queue is nearly drained.
    if (depth > queue->window) {
      queue->window =
          std::min(queue->window * 2, options_.max_coalesce_window);
    } else if (depth <= 1) {
      queue->window = std::max<size_t>(queue->window / 2, 1);
    }
  }

  ShardStats& stats = shard->stats();
  stats.queue_depth.Record(depth);
  stats.coalesced.Record(group->size());
  stats.Add(stats.coalesced_groups);
  RunGroup(worker, shard, queue);

  // Periodic durable checkpoint, on the owning worker (single-writer: the
  // checkpoint flushes and republishes structures only this thread
  // mutates). Bounds WAL length and crash-replay time. Best effort — a
  // failed checkpoint leaves the previous superblock in force, which only
  // means a longer replay.
  if (options_.wal_enabled && options_.checkpoint_every_groups > 0) {
    if (++queue->groups_since_checkpoint >=
        options_.checkpoint_every_groups) {
      queue->groups_since_checkpoint = 0;
      Status cs = shard->Checkpoint();
      if (!cs.ok()) shard->stats().Add(shard->stats().errors);
    }
  }
  // Flush pass, when one is due. The group's tickets are complete, so it
  // delays no reply. A failed write left its pages dirty for the next pass
  // or eviction; count it like a failed checkpoint.
  if (Status fs = shard->FlushIfDue(); !fs.ok()) {
    shard->stats().Add(shard->stats().errors);
  }
  return true;
}

void ShardedEngine::RunGroup(Worker* worker, Shard* shard,
                             ShardQueue* queue) {
  std::vector<SubBatch>* group = &worker->group;
  // Consecutive kGet requests — ACROSS sub-batch boundaries — are drained
  // through the shard's batched read path (shared B+Tree descent + vectored
  // heap-page miss I/O); coalescing the group is what turns queue depth into
  // longer preadv runs. Segmenting at every non-get preserves batch order
  // within the shard, so a lookup that follows a write to the same id still
  // sees the write, including across tickets queued to this shard.
  // Dequeue stamp: close the queue-wait span of every traced sub-batch and
  // elect the FIRST traced context as this thread's active trace for the
  // shared service phases (GetBatch / fetch-start / io-submit / device-wait
  // / copy, attributed via TraceTimer). The group is served as one unit, so
  // one context observing the shared work is the honest attribution — the
  // others still get their own queue-wait and service spans.
  TraceContext* active_trace = nullptr;
  std::chrono::steady_clock::time_point dequeued{};
  for (SubBatch& sub : *group) {
    if (!sub.trace) continue;
    if (active_trace == nullptr) {
      dequeued = std::chrono::steady_clock::now();
      active_trace = sub.trace.get();
    }
    sub.trace->AddSpan(TracePhase::kQueueWait, sub.enqueued, dequeued);
  }

  // A get run's rows are decoded straight into its requests' result slots,
  // or, for RowForm::kImage tickets, its checked images appended to the
  // ticket's buffer for this shard.
  std::vector<uint64_t>& run_ids = worker->run_ids;
  std::vector<RowSlot>& run_slots = worker->run_slots;
  auto flush_gets = [&] {
    if (run_ids.empty()) return;
    Status s = shard->GetBatch(run_ids, run_slots.data());
    if (!s.ok()) {
      // An infrastructure failure fails every get of the run.
      for (const RowSlot& slot : run_slots) slot.Fail(s);
    }
    uint64_t image_bytes = 0, images = 0;
    for (const RowSlot& slot : run_slots) {
      if (slot.image != nullptr && slot.image->present) {
        image_bytes += slot.image->size;
        ++images;
      }
    }
    if (images > 0) {
      const size_t mean = static_cast<size_t>(image_bytes / images);
      queue->image_bytes_hint = mean + mean / 4;
    }
    run_ids.clear();
    run_slots.clear();
  };

  {
    // Scoped so the thread-local pointer is cleared before the contexts are
    // retired and destroyed below.
    ActiveTraceScope trace_scope(active_trace);
    for (SubBatch& sub : *group) {
      const RequestBatch& batch = *sub.ticket->batch_;
      BatchResult& out = sub.ticket->result_;
      const std::vector<uint32_t>& by_shard = sub.ticket->by_shard_;
      std::string* images = nullptr;
      if (sub.ticket->form_ == RowForm::kImage) {
        // The only sub-batch of this ticket on this shard: its buffer is
        // empty. It is sized by image bytes rather than row_size, in a
        // power-of-two allocation (+ 1 for the string's terminator): the
        // worker that finishes the ticket frees it, and with few distinct
        // sizes the allocator reuses what is freed (exact sizes made the
        // server's peak RSS grow through a read_hot run).
        images = &out.images[shard->id()];
        const size_t want = (sub.end - sub.begin) * queue->image_bytes_hint;
        if (want > 0) images->reserve(CeilPow2(want + 1) - 1);
      }
      for (uint32_t k = sub.begin; k < sub.end; ++k) {
        const uint32_t i = by_shard[k];
        const Request& request = batch[i];
        RequestResult& result = out.results[i];
        if (request.kind == RequestKind::kGet) {
          run_ids.push_back(request.id);
          if (images != nullptr) {
            run_slots.push_back(
                {&result.status, nullptr, images, &result.image});
          } else {
            run_slots.push_back({&result.status, &result.row});
          }
          continue;
        }
        flush_gets();
        switch (request.kind) {
          case RequestKind::kGetProjected: {
            auto row = shard->GetProjected(request.id, request.projection);
            if (row.ok()) {
              result.row = std::move(*row);
            } else {
              result.status = row.status();
            }
            break;
          }
          case RequestKind::kInsert:
            result.status = shard->Insert(request.row);
            break;
          case RequestKind::kUpdate:
            result.status = shard->Update(request.id, request.row);
            break;
          case RequestKind::kDelete:
            result.status = shard->Delete(request.id);
            break;
          case RequestKind::kGet:
            break;  // handled above
        }
      }
      shard->NoteSubBatch();
    }
    flush_gets();
  }

  // Group commit (wal_enabled): every write op in this group appended log
  // records; make them durable in one vectored write + fsync BEFORE any of
  // the group's tickets can complete — the ack barrier. On failure, poison
  // every apparently-successful write result in the group: those mutations
  // are in memory but not in the log, so acking them would promise a
  // durability we cannot deliver.
  Status commit = shard->CommitWal();
  if (!commit.ok()) {
    for (SubBatch& sub : *group) {
      const RequestBatch& batch = *sub.ticket->batch_;
      BatchResult& out = sub.ticket->result_;
      for (uint32_t k = sub.begin; k < sub.end; ++k) {
        const uint32_t i = sub.ticket->by_shard_[k];
        const RequestKind kind = batch[i].kind;
        if ((kind == RequestKind::kInsert || kind == RequestKind::kUpdate ||
             kind == RequestKind::kDelete) &&
            out.results[i].status.ok()) {
          out.results[i].status = commit;
        }
      }
    }
  }

  const auto now = std::chrono::steady_clock::now();
  ShardStats& stats = shard->stats();
  for (SubBatch& sub : *group) {
    stats.sub_batch_latency_us.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                              sub.enqueued)
            .count()));
    if (sub.trace) {
      // Close the service span and retire the context before the ticket can
      // complete — the aggregator's histograms are the only thing that
      // outlives the sub-batch.
      sub.trace->AddSpan(TracePhase::kService, dequeued, now);
      tracer_->Retire(*sub.trace, now);
      sub.trace.reset();
    }
    TicketPtr ticket = std::move(sub.ticket);
    // acq_rel: see Ticket::pending_. The last decrementer observes every
    // other worker's result writes and completes the ticket.
    if (ticket->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FinishTicket(ticket);
    }
  }
  group->clear();
}

// ---- Single-op conveniences -------------------------------------------------

Status ShardedEngine::Insert(uint64_t id, Row row) {
  RequestBatch batch;
  batch.push_back(Request::Insert(id, std::move(row)));
  return Execute(batch).results[0].status;
}

Result<Row> ShardedEngine::Get(uint64_t id) {
  RequestBatch batch;
  batch.push_back(Request::Get(id));
  auto result = Execute(batch);
  if (!result.results[0].status.ok()) return result.results[0].status;
  return std::move(result.results[0].row);
}

Result<Row> ShardedEngine::GetProjected(uint64_t id,
                                        std::vector<size_t> projection) {
  RequestBatch batch;
  batch.push_back(Request::GetProjected(id, std::move(projection)));
  auto result = Execute(batch);
  if (!result.results[0].status.ok()) return result.results[0].status;
  return std::move(result.results[0].row);
}

Status ShardedEngine::Update(uint64_t id, Row row) {
  RequestBatch batch;
  batch.push_back(Request::Update(id, std::move(row)));
  return Execute(batch).results[0].status;
}

Status ShardedEngine::Delete(uint64_t id) {
  RequestBatch batch;
  batch.push_back(Request::Delete(id));
  return Execute(batch).results[0].status;
}

MetricsSnapshot ShardedEngine::MetricsSnapshotNow() const {
  // "engine.*" and "trace.*" from the engine's own registry, then each
  // shard's Database registry folded in under "shard<i>." — one document
  // covering every layer of the stack.
  MetricsSnapshot snap = metrics_->Snapshot();
  for (size_t i = 0; i < shards_.size(); ++i) {
    snap.Merge(shards_[i]->database()->metrics()->Snapshot(),
               "shard" + std::to_string(i) + ".");
  }
  return snap;
}

}  // namespace nblb
