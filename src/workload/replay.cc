#include "workload/replay.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace nblb {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

Status LoadRows(ShardedEngine* engine, const std::vector<Row>& rows,
                size_t key_column, size_t batch_size) {
  if (batch_size == 0) return Status::InvalidArgument("batch_size must be >0");
  RequestBatch batch;
  batch.reserve(batch_size);
  for (const Row& row : rows) {
    if (key_column >= row.size()) {
      return Status::InvalidArgument("key column out of range");
    }
    const uint64_t id = static_cast<uint64_t>(row[key_column].AsInt());
    batch.push_back(Request::Insert(id, row));
    if (batch.size() == batch_size) {
      BatchResult result = engine->Execute(batch);
      for (const auto& r : result.results) {
        if (!r.status.ok()) return r.status;
      }
      batch.clear();
    }
  }
  if (!batch.empty()) {
    BatchResult result = engine->Execute(batch);
    for (const auto& r : result.results) {
      if (!r.status.ok()) return r.status;
    }
  }
  return Status::OK();
}

std::vector<RequestBatch> BuildLookupBatches(const std::vector<int64_t>& ids,
                                             size_t batch_size) {
  std::vector<RequestBatch> batches;
  if (batch_size == 0) return batches;
  batches.reserve((ids.size() + batch_size - 1) / batch_size);
  RequestBatch batch;
  batch.reserve(batch_size);
  for (int64_t id : ids) {
    batch.push_back(Request::Get(static_cast<uint64_t>(id)));
    if (batch.size() == batch_size) {
      batches.push_back(std::move(batch));
      batch = RequestBatch();
      batch.reserve(batch_size);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

std::vector<RequestBatch> BuildOpBatches(
    const std::vector<Op>& ops, const std::function<Row(uint64_t)>& row_of,
    size_t batch_size) {
  std::vector<RequestBatch> batches;
  if (batch_size == 0) return batches;
  batches.reserve((ops.size() + batch_size - 1) / batch_size);
  RequestBatch batch;
  batch.reserve(batch_size);
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kLookup:
        batch.push_back(Request::Get(op.item));
        break;
      case OpKind::kInsert:
        batch.push_back(Request::Insert(op.item, row_of(op.item)));
        break;
      case OpKind::kUpdate:
        batch.push_back(Request::Update(op.item, row_of(op.item)));
        break;
      case OpKind::kDelete:
        batch.push_back(Request::Delete(op.item));
        break;
    }
    if (batch.size() == batch_size) {
      batches.push_back(std::move(batch));
      batch = RequestBatch();
      batch.reserve(batch_size);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

ReplayReport ReplayBatches(ShardedEngine* engine,
                           const std::vector<RequestBatch>& batches) {
  ReplayReport report;
  report.batch_seconds.reserve(batches.size());
  const auto run_start = std::chrono::steady_clock::now();
  for (const RequestBatch& batch : batches) {
    const auto batch_start = std::chrono::steady_clock::now();
    BatchResult result = engine->Execute(batch);
    report.batch_seconds.push_back(SecondsSince(batch_start));
    report.ops += batch.size();
    for (const auto& r : result.results) {
      if (r.status.ok()) {
        ++report.found;
      } else if (r.status.IsNotFound()) {
        ++report.not_found;
      } else {
        ++report.errors;
      }
    }
  }
  report.seconds = SecondsSince(run_start);
  return report;
}

ReplayReport ReplayBatchesOpenLoop(ShardedEngine* engine,
                                   const std::vector<RequestBatch>& batches,
                                   size_t target_inflight) {
  if (target_inflight == 0) target_inflight = 1;
  ReplayReport report;
  report.batch_seconds.assign(batches.size(), 0.0);

  // Shared with the completion callbacks, which run on the engine workers
  // (or, for a batch no shard received, inside SubmitRef on this thread,
  // which holds no lock there); everything below is guarded by `mu`. The
  // final wait for inflight == 0 guarantees all callbacks (and thus all
  // writes into `report`) finished before this frame is torn down.
  std::mutex mu;
  std::condition_variable cv;
  size_t inflight = 0;
  uint64_t found = 0, not_found = 0, errors = 0;

  const auto run_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batches.size(); ++i) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return inflight < target_inflight; });
      ++inflight;
    }
    report.ops += batches[i].size();
    const auto batch_start = std::chrono::steady_clock::now();
    // SubmitRef: `batches` outlives the final inflight==0 wait below, so
    // the driver pays no per-batch copy (keeping the open-vs-closed
    // comparison about pipelining, not allocation).
    engine->SubmitRef(batches[i], [&, i,
                                   batch_start](const BatchResult& result) {
      uint64_t f = 0, nf = 0, e = 0;
      for (const auto& r : result.results) {
        if (r.status.ok()) {
          ++f;
        } else if (r.status.IsNotFound()) {
          ++nf;
        } else {
          ++e;
        }
      }
      const double secs = SecondsSince(batch_start);
      std::lock_guard<std::mutex> lk(mu);
      report.batch_seconds[i] = secs;
      found += f;
      not_found += nf;
      errors += e;
      --inflight;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return inflight == 0; });
  }
  report.seconds = SecondsSince(run_start);
  report.found = found;
  report.not_found = not_found;
  report.errors = errors;
  return report;
}

}  // namespace nblb
