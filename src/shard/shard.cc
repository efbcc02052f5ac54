#include "shard/shard.h"

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "catalog/type.h"
#include "common/logging.h"
#include "obs/event_ring.h"
#include "obs/trace.h"

namespace nblb {

namespace {

/// Checks a superblock against the options of the shard being opened. The
/// superblock never overrides caller options — the caller's schema already
/// passed key validation and drives codec construction, so a mismatch is an
/// operator error (wrong path or changed config), not something to adopt.
Status ValidateSuperblock(const SuperblockData& sb, const ShardOptions& opt) {
  if (sb.page_size != opt.page_size) {
    return Status::InvalidArgument("superblock page_size mismatch");
  }
  if (sb.reuse_free_slots != opt.table_options.reuse_free_slots ||
      sb.enable_index_cache != opt.table_options.enable_index_cache) {
    return Status::InvalidArgument("superblock table-option flags mismatch");
  }
  const auto match_cols = [](const std::vector<uint32_t>& a,
                             const std::vector<size_t>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  };
  if (!match_cols(sb.key_columns, opt.table_options.key_columns) ||
      !match_cols(sb.cached_columns, opt.table_options.cached_columns)) {
    return Status::InvalidArgument("superblock key/cached columns mismatch");
  }
  const auto& cols = opt.schema.columns();
  if (sb.columns.size() != cols.size()) {
    return Status::InvalidArgument("superblock schema arity mismatch");
  }
  for (size_t i = 0; i < cols.size(); ++i) {
    if (sb.columns[i].name != cols[i].name ||
        sb.columns[i].type != cols[i].type ||
        sb.columns[i].length != cols[i].length) {
      return Status::InvalidArgument("superblock schema column mismatch: " +
                                     cols[i].name);
    }
  }
  if (sb.heap_first_page == kInvalidPageId ||
      sb.btree_meta_page == kInvalidPageId) {
    return Status::Corruption("superblock has no table roots");
  }
  return Status::OK();
}

}  // namespace

Shard::Shard(uint32_t shard_id, ShardOptions options)
    : id_(shard_id), options_(std::move(options)) {}

Shard::~Shard() {
  if (durable_ && !skip_clean_close_ && db_ && table_) {
    // Orderly close: publish a clean-shutdown superblock so the next Open
    // takes the fast attach path (strict heap walk + BTree::Open) instead
    // of crash recovery. Best effort — a failure here just means the next
    // open recovers as if we had crashed, which is always safe.
    Status s = RunCheckpoint(/*clean_shutdown=*/true);
    if (!s.ok()) {
      std::fprintf(stderr,
                   "nblb: shard %u clean-close checkpoint failed (%s); next "
                   "open will run crash recovery\n",
                   id_, s.ToString().c_str());
    }
  }
}

Result<std::unique_ptr<Shard>> Shard::Open(uint32_t shard_id,
                                           ShardOptions options) {
  if (options.table_options.key_columns.size() != 1) {
    return Status::InvalidArgument(
        "shard tables need a single-column primary key (the routing key)");
  }
  const size_t key_col = options.table_options.key_columns[0];
  if (key_col >= options.schema.num_columns() ||
      !IsIntegerFamily(options.schema.column(key_col).type)) {
    return Status::InvalidArgument(
        "shard routing key must be an integer-family column");
  }

  std::unique_ptr<Shard> shard(new Shard(shard_id, std::move(options)));

  DatabaseOptions dbo;
  dbo.path = shard->options_.path;
  dbo.page_size = shard->options_.page_size;
  dbo.buffer_pool_frames = shard->options_.buffer_pool_frames;
  dbo.direct_io = shard->options_.direct_io;
  shard->durable_ = shard->options_.wal_enabled;

  // Decide between fresh create and reattach BEFORE opening anything.
  bool attach = false;
  SuperblockData sb;
  if (shard->options_.truncate) {
    std::remove(dbo.path.c_str());
    std::remove(Superblock::PathFor(dbo.path).c_str());
    std::remove(Wal::PathFor(dbo.path).c_str());
  } else {
    std::error_code ec;
    const bool exists = std::filesystem::exists(dbo.path, ec);
    if (ec) {
      // Can't prove the path is clear — refuse rather than risk the
      // downstream O_CREAT (no O_EXCL) silently clobbering a file the
      // guard exists to protect.
      return Status::IOError("cannot probe shard path (" + ec.message() +
                             "); refusing guarded open: " + dbo.path);
    }
    if (shard->durable_) {
      auto read = Superblock::Read(Superblock::PathFor(dbo.path));
      if (read.ok()) {
        if (!exists) {
          return Status::Corruption(
              "superblock exists but the data file is missing: " + dbo.path);
        }
        sb = std::move(read).ValueOrDie();
        NBLB_RETURN_NOT_OK(ValidateSuperblock(sb, shard->options_));
        attach = true;
      } else if (read.status().IsNotFound()) {
        if (exists) {
          // A data file with no superblock was written by a non-durable
          // shard (or isn't ours at all) — there is no catalog to reopen
          // from, so the clobber guard applies.
          return Status::AlreadyExists(
              "shard backing file exists without a superblock; pass "
              "truncate=true to rebuild: " +
              dbo.path);
        }
        // Nothing on disk: fresh create.
      } else {
        return read.status();  // corrupt superblock: refuse, don't clobber
      }
    } else if (exists) {
      // Without the WAL there is no durable catalog, so "opening" an
      // existing file would really mean silently clobbering it. Refuse
      // instead of destroying data.
      return Status::AlreadyExists(
          "shard backing file exists and truncate=false; reopen requires "
          "wal_enabled — pass truncate=true to rebuild: " +
          dbo.path);
    }
  }

  NBLB_ASSIGN_OR_RETURN(shard->db_, Database::Open(dbo));
  // The shard's op counters join the database's registry, so one
  // Database::DumpMetrics() covers disk + buffer pool + shard in a single
  // document. stats_ outlives db_ (member order), so the pointers stay
  // valid for the registry's whole life.
  shard->stats_.RegisterMetrics(shard->db_->metrics(), "shard.");

  if (shard->durable_) {
    WalOptions wo;
    wo.page_size = shard->options_.page_size;
    NBLB_ASSIGN_OR_RETURN(shard->wal_,
                          Wal::Open(Wal::PathFor(dbo.path), wo));
    shard->wal_->RegisterMetrics(shard->db_->metrics(), "wal.");
  }

  if (!attach) {
    NBLB_ASSIGN_OR_RETURN(
        shard->table_,
        shard->db_->CreateTable("data", shard->options_.schema,
                                shard->options_.table_options));
  } else {
    shard->sb_version_ = sb.version;
    shard->checkpoint_lsn_ = sb.checkpoint_lsn;
    if (sb.clean_shutdown) {
      NBLB_ASSIGN_OR_RETURN(
          shard->table_,
          shard->db_->AttachTable("data", shard->options_.schema,
                                  shard->options_.table_options,
                                  sb.heap_first_page, sb.btree_meta_page));
    } else {
      // Crash recovery: the on-disk index is untrusted (flush passes and
      // eviction persist arbitrary page subsets), so rebuild it from the
      // heap, then redo the WAL tail.
      RecordFlightEvent(FlightEvent::kRecoveryStart, shard_id,
                        sb.checkpoint_lsn);
      shard->recovered_ = true;
      NBLB_ASSIGN_OR_RETURN(
          shard->table_,
          shard->db_->AttachTableRebuild("data", shard->options_.schema,
                                         shard->options_.table_options,
                                         sb.heap_first_page));
    }
    NBLB_RETURN_NOT_OK(shard->ReplayWal());
    shard->rows_ = shard->table_->heap()->tuple_count();
    RecordFlightEvent(FlightEvent::kRecoveryReplayed,
                      shard->replayed_records_, shard->rows_);
  }

  if (shard->durable_) {
    // Baseline publish: makes the just-created (or just-recovered) state
    // durable, marks the shard dirty (clean_shutdown=false) so a crash
    // from here on is detected, and resets the WAL after recovery replay.
    NBLB_RETURN_NOT_OK(shard->Checkpoint());
  }
  return shard;
}

Status Shard::CommitWal() {
  if (!wal_) return Status::OK();
  Status s = wal_->Commit();
  if (!s.ok()) {
    stats_.Add(stats_.errors);
    return s;
  }
  // The puts are durable, so the commit stands whatever happens to the
  // slots their rows moved out of; one that fails to free is retried at
  // the next commit, and a checkpoint refuses to publish while it is left.
  if (!FreeMovedSlots().ok()) stats_.Add(stats_.errors);
  return Status::OK();
}

Status Shard::FreeMovedSlots() {
  Status first;
  std::vector<Rid> left;
  for (const Rid& rid : moved_from_) {
    Status s = table_->heap()->Delete(rid);
    if (s.ok()) continue;
    if (first.ok()) first = s;
    left.push_back(rid);
  }
  moved_from_ = std::move(left);
  return first;
}

Status Shard::Checkpoint() { return RunCheckpoint(/*clean_shutdown=*/false); }

Status Shard::FlushIfDue() {
  if (options_.flusher_interval_us == 0) return Status::OK();
  const auto now = std::chrono::steady_clock::now();
  if (now - last_flush_ <
      std::chrono::microseconds(options_.flusher_interval_us)) {
    return Status::OK();
  }
  last_flush_ = now;
  return db_->buffer_pool()->FlushColdPages().status();
}

Status Shard::RunCheckpoint(bool clean_shutdown) {
  if (!durable_) return db_->Checkpoint();
  // Everything the superblock will reference must be durable or about to be
  // flushed: commit pending WAL records (so no acked write can be lost by
  // the Reset below), stage the LSN the publish covers, and persist the
  // index's root/meta linkage.
  NBLB_RETURN_NOT_OK(wal_->Commit());
  NBLB_RETURN_NOT_OK(FreeMovedSlots());
  const uint64_t checkpoint_lsn = wal_->next_lsn() - 1;
  NBLB_RETURN_NOT_OK(table_->index()->WriteMeta());
  NBLB_RETURN_NOT_OK(db_->Checkpoint());
  // The data file now reflects every record up to the staged LSN, so
  // publish a new superblock version pointing at it and reclaim the log.
  // Crash before the Write keeps the old superblock (old LSN, longer
  // replay); crash between Write and Reset replays a redundant-but-
  // idempotent tail. Both are correct.
  SuperblockData sb = BuildSuperblock();
  sb.version = sb_version_ + 1;
  sb.checkpoint_lsn = checkpoint_lsn;
  sb.clean_shutdown = clean_shutdown;
  NBLB_RETURN_NOT_OK(Superblock::Write(Superblock::PathFor(options_.path), sb));
  sb_version_ = sb.version;
  checkpoint_lsn_ = sb.checkpoint_lsn;
  NBLB_RETURN_NOT_OK(wal_->Reset());
  RecordFlightEvent(FlightEvent::kCheckpoint, sb.version, sb.checkpoint_lsn);
  return Status::OK();
}

SuperblockData Shard::BuildSuperblock() const {
  SuperblockData sb;
  sb.page_size = static_cast<uint32_t>(options_.page_size);
  sb.num_pages = static_cast<uint32_t>(db_->disk()->num_pages());
  sb.heap_first_page = table_->heap()->first_page_id();
  sb.btree_meta_page = table_->index()->meta_page_id();
  sb.reuse_free_slots = options_.table_options.reuse_free_slots;
  sb.enable_index_cache = options_.table_options.enable_index_cache;
  for (size_t c : options_.table_options.key_columns) {
    sb.key_columns.push_back(static_cast<uint32_t>(c));
  }
  for (size_t c : options_.table_options.cached_columns) {
    sb.cached_columns.push_back(static_cast<uint32_t>(c));
  }
  sb.columns = options_.schema.columns();
  return sb;
}

Status Shard::ReplayWal() {
  return wal_->Replay(checkpoint_lsn_, [&](const Wal::Record& rec) -> Status {
    switch (rec.op) {
      case Wal::Op::kPut: {
        // LogPut writes trimmed images; the codec also reads a fixed image
        // (one of exactly row_size bytes).
        NBLB_ASSIGN_OR_RETURN(Row row, table_->row_codec().Decode(rec.payload));
        NBLB_RETURN_NOT_OK(table_->UpsertByKey(row));
        break;
      }
      case Wal::Op::kDelete: {
        Status s = table_->DeleteByKey(KeyOf(rec.key));
        if (!s.ok() && !s.IsNotFound()) return s;
        break;
      }
    }
    ++replayed_records_;
    return Status::OK();
  });
}

Status Shard::LogPut(uint64_t id) {
  if (!wal_) return Status::OK();
  auto lsn = wal_->Append(Wal::Op::kPut, id, table_->last_image());
  return lsn.ok() ? Status::OK() : lsn.status();
}

Status Shard::LogDelete(uint64_t id) {
  if (!wal_) return Status::OK();
  auto lsn = wal_->Append(Wal::Op::kDelete, id, Slice());
  return lsn.ok() ? Status::OK() : lsn.status();
}

std::vector<Value> Shard::KeyOf(uint64_t id) const {
  return {Value::Int64(static_cast<int64_t>(id))};
}

Status Shard::Insert(const Row& row) {
  stats_.Add(stats_.inserts);
  Status s = table_->Insert(row);
  if (!s.ok()) {
    stats_.Add(stats_.errors);
    return s;
  }
  ++rows_;
  if (wal_) {
    const size_t key_col = options_.table_options.key_columns[0];
    Status ls = LogPut(static_cast<uint64_t>(row[key_col].AsInt()));
    if (!ls.ok()) {
      // The in-memory insert stands, but the op is NOT acked: the record
      // never reached the log, so recovery would not reproduce it. The
      // sticky WAL error also fails the group commit.
      stats_.Add(stats_.errors);
      return ls;
    }
  }
  return s;
}

Result<Row> Shard::Get(uint64_t id) {
  stats_.Add(stats_.gets);
  auto result = table_->GetByKey(KeyOf(id));
  if (!result.ok()) CountMiss(result.status());
  return result;
}

const char* Shard::EncodeKeys(const std::vector<uint64_t>& ids) {
  const KeyCodec& codec = table_->key_codec();
  const size_t width = codec.key_size();
  keys_.resize(ids.size() * width);
  for (size_t i = 0; i < ids.size(); ++i) {
    codec.EncodeInteger(static_cast<int64_t>(ids[i]), &keys_[i * width]);
  }
  return keys_.data();
}

Status Shard::GetBatch(const std::vector<uint64_t>& ids,
                       const RowSlot* slots) {
  TraceTimer span(TracePhase::kGetBatch);
  stats_.Add(stats_.gets, ids.size());
  stats_.Add(stats_.batch_gets, ids.size());
  NBLB_RETURN_NOT_OK(
      table_->GetBatchEncoded(EncodeKeys(ids), ids.size(), slots));
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!slots[i].status->ok()) CountMiss(*slots[i].status);
  }
  return Status::OK();
}

Status Shard::GetBatch(const std::vector<uint64_t>& ids,
                       std::vector<Result<Row>>* out) {
  TraceTimer span(TracePhase::kGetBatch);
  stats_.Add(stats_.gets, ids.size());
  stats_.Add(stats_.batch_gets, ids.size());
  const size_t first = out->size();
  NBLB_RETURN_NOT_OK(
      table_->GetBatchEncoded(EncodeKeys(ids), ids.size(), out));
  for (size_t i = first; i < out->size(); ++i) {
    if (!(*out)[i].ok()) CountMiss((*out)[i].status());
  }
  return Status::OK();
}

Status Shard::Update(uint64_t id, const Row& row) {
  stats_.Add(stats_.updates);
  // With a WAL, a moved row's old slot stays live until the group commit
  // makes the put durable (CommitWal): if the pool wrote back the old page
  // before that and the process died, the row would be on no page and in
  // no log. Both copies on disk is harmless; AttachRebuild keeps the later.
  Rid moved_from;
  Status s =
      table_->UpdateByKey(KeyOf(id), row, wal_ ? &moved_from : nullptr);
  if (!s.ok()) {
    CountMiss(s);
    return s;
  }
  if (moved_from.IsValid()) moved_from_.push_back(moved_from);
  if (wal_) {
    Status ls = LogPut(id);
    if (!ls.ok()) {
      stats_.Add(stats_.errors);
      return ls;
    }
  }
  return s;
}

Status Shard::Delete(uint64_t id) {
  stats_.Add(stats_.deletes);
  Status s = table_->DeleteByKey(KeyOf(id));
  if (!s.ok()) {
    CountMiss(s);
    return s;
  }
  --rows_;
  if (wal_) {
    Status ls = LogDelete(id);
    if (!ls.ok()) {
      stats_.Add(stats_.errors);
      return ls;
    }
  }
  return s;
}

Result<Row> Shard::GetProjected(uint64_t id,
                                const std::vector<size_t>& projection) {
  stats_.Add(stats_.projected_gets);
  auto result = table_->LookupProjected(KeyOf(id), projection);
  if (!result.ok()) CountMiss(result.status());
  return result;
}

}  // namespace nblb
