// Request/response types for the sharded serving layer.
//
// A RequestBatch is the unit clients hand to ShardedEngine::Submit (async,
// completion callback + ticket) or Execute (blocking wrapper): the engine
// routes each request to its home shard, fans the batch out to the
// per-shard queues, and delivers one RequestResult per request, in batch
// order. Batching is what makes the thread handoff affordable: the queue
// round-trip is paid once per (batch × shard), not once per operation —
// and queued sub-batches are further coalesced per shard (see
// sharded_engine.h).

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalog/row_codec.h"
#include "catalog/value.h"
#include "common/result.h"

namespace nblb {

/// \brief Operations the engine can serve.
enum class RequestKind : uint8_t {
  kGet = 0,           ///< full-row point lookup by ID
  kGetProjected = 1,  ///< projected point lookup (index-cache eligible)
  kInsert = 2,        ///< insert a full row
  kUpdate = 3,        ///< replace the non-key columns of an existing row
  kDelete = 4,        ///< remove a row by ID
};

/// \brief One operation. `id` is the routing key and must equal the row's
/// primary-key value (the engine serves tables with a single int64 key).
struct Request {
  RequestKind kind = RequestKind::kGet;
  uint64_t id = 0;
  Row row;                         ///< kInsert / kUpdate only
  std::vector<size_t> projection;  ///< kGetProjected only

  static Request Get(uint64_t id) {
    Request r;
    r.kind = RequestKind::kGet;
    r.id = id;
    return r;
  }

  static Request GetProjected(uint64_t id, std::vector<size_t> projection) {
    Request r;
    r.kind = RequestKind::kGetProjected;
    r.id = id;
    r.projection = std::move(projection);
    return r;
  }

  static Request Insert(uint64_t id, Row row) {
    Request r;
    r.kind = RequestKind::kInsert;
    r.id = id;
    r.row = std::move(row);
    return r;
  }

  static Request Update(uint64_t id, Row row) {
    Request r;
    r.kind = RequestKind::kUpdate;
    r.id = id;
    r.row = std::move(row);
    return r;
  }

  static Request Delete(uint64_t id) {
    Request r;
    r.kind = RequestKind::kDelete;
    r.id = id;
    return r;
  }
};

using RequestBatch = std::vector<Request>;

/// \brief How a batch's kGet results carry their rows; the submitter picks
/// it per batch (ShardedEngine::Submission).
enum class RowForm : uint8_t {
  /// Decoded into RequestResult::row: what Execute, Submit and SubmitRef
  /// give, and a Submission's default.
  kRow = 0,
  /// The stored image, checked as RowCodec::DecodeInto checks it and copied
  /// into BatchResult::images; `row` stays empty. The network server's
  /// encoder transcodes it straight into the reply (net/wire.h).
  kImage = 1,
};

/// \brief Outcome of one request. `row` is filled for successful lookups,
/// or, for a kGet of a RowForm::kImage batch, `image` places its image.
struct RequestResult {
  Status status;
  Row row;
  uint32_t shard = 0;  ///< shard that served (or would have served) it
  /// Where the checked stored image sits in BatchResult::images[shard];
  /// present only for an OK kGet of a RowForm::kImage batch.
  ImageSpan image = {};
};

/// \brief Results of a batch, 1:1 with the submitted requests.
struct BatchResult {
  std::vector<RequestResult> results;
  /// RowForm::kImage batches only: one buffer per shard, written only by
  /// that shard's worker (a batch has at most one sub-batch per shard),
  /// holding the images its gets' `image` spans place.
  std::vector<std::string> images = {};
  /// Reads those images (the engine's table schema); null when there are
  /// none. Points into the engine, so it is valid while the engine lives.
  const RowCodec* image_codec = nullptr;

  /// \brief The image of `r`, a result of this batch with r.image.present.
  Slice ImageOf(const RequestResult& r) const {
    return Slice(images[r.shard].data() + r.image.offset, r.image.size);
  }

  /// \brief True iff every request succeeded.
  bool all_ok() const {
    for (const auto& r : results) {
      if (!r.status.ok()) return false;
    }
    return true;
  }
};

}  // namespace nblb
