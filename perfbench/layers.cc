// Per-layer timings for the traced run: calls into each layer's public
// functions, timed from the benchmark's own code. Nothing here runs inside
// the serving process or changes the engine; the engine's built-in trace
// sampler stays off.

#include <fcntl.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "common/rng.h"
#include "exec/database.h"
#include "net/wire.h"
#include "semid/routing.h"
#include "shard/shard.h"
#include "storage/superblock.h"
#include "storage/wal.h"

namespace nblb::perfbench {

Status CopyFile(const std::string& from, const std::string& to) {
  const int in = ::open(from.c_str(), O_RDONLY | O_CLOEXEC);
  if (in < 0) return Status::IOError("open " + from);
  const int out =
      ::open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0) {
    ::close(in);
    return Status::IOError("open " + to);
  }
  std::vector<char> buf(1 << 20);
  Status st = Status::OK();
  for (;;) {
    const ssize_t n = ::read(in, buf.data(), buf.size());
    if (n == 0) break;
    if (n < 0 || ::write(out, buf.data(), static_cast<size_t>(n)) != n) {
      st = Status::IOError("copy " + from + " -> " + to);
      break;
    }
  }
  ::close(in);
  if (::close(out) != 0 && st.ok()) st = Status::IOError("close " + to);
  return st;
}

namespace {

template <typename Fn>
double TimeUs(Fn&& fn) {
  const double t0 = Now();
  fn();
  return (Now() - t0) * 1e6;
}

constexpr int kCodecReps = 2000;

}  // namespace

void MeasureCodec(const RequestBatch& request, const BatchResult& result,
                  LayerMetrics* out) {
  std::vector<double> enc_req, dec_req, enc_resp, dec_resp;
  std::string req_wire, resp_wire;
  (void)net::AppendRequestFrame(1, request, &req_wire);
  (void)net::AppendResponseFrame(1, result, &resp_wire);
  const char* req_payload = req_wire.data() + net::kFrameHeaderBytes;
  const size_t req_len = req_wire.size() - net::kFrameHeaderBytes;
  const char* resp_payload = resp_wire.data() + net::kFrameHeaderBytes;
  const size_t resp_len = resp_wire.size() - net::kFrameHeaderBytes;
  size_t sink = 0;
  for (int i = 0; i < kCodecReps; ++i) {
    std::string w;
    enc_req.push_back(TimeUs([&] { (void)net::AppendRequestFrame(1, request, &w); }));
    sink += w.size();
    std::string r;
    enc_resp.push_back(TimeUs([&] { (void)net::AppendResponseFrame(1, result, &r); }));
    sink += r.size();
    dec_req.push_back(TimeUs([&] {
      auto b = net::DecodeRequestPayload(req_payload, req_len);
      sink += b.ok() ? b->size() : 0;
    }));
    dec_resp.push_back(TimeUs([&] {
      auto b = net::DecodeResponsePayload(resp_payload, resp_len);
      sink += b.ok() ? b->results.size() : 0;
    }));
  }
  if (sink == 0) std::fprintf(stderr, "codec: empty frames\n");
  out->SetTiming("net.encode_req_us", std::move(enc_req));
  out->SetTiming("net.decode_req_us", std::move(dec_req));
  out->SetTiming("net.encode_resp_us", std::move(enc_resp));
  out->SetTiming("net.decode_resp_us", std::move(dec_resp));
}

Status MeasureStandaloneShard(const Config& c, const Dataset& data,
                              uint32_t commit_group, LayerMetrics* out) {
  // Shard 0's share of the data under the engine's hash routing, with the
  // engine's per-shard pool: the same pool-to-data ratio.
  HashRouter router(kShards);
  auto in_shard0 = [&router](uint64_t key) {
    auto r = router.Route(key);
    return r.ok() && *r == 0;
  };
  const ShardedEngineOptions e = EngineOptions(c.dir + "/standalone", true);
  ShardOptions o;
  o.path = c.dir + "/standalone.db";
  o.wal_enabled = true;
  o.page_size = e.page_size;
  o.buffer_pool_frames = e.buffer_pool_frames_per_shard;
  o.direct_io = e.direct_io;
  o.flusher_interval_us = e.flusher_interval_us;
  o.schema = e.schema;
  o.table_options = e.table_options;
  auto opened = Shard::Open(0, o);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<Shard> shard = std::move(*opened);

  uint64_t loaded = 0;
  for (uint64_t k = 1; k <= data.rows(); ++k) {
    if (!in_shard0(k)) continue;
    NBLB_RETURN_NOT_OK(shard->Insert(data.Loaded(k)));
    if (++loaded % 512 == 0) NBLB_RETURN_NOT_OK(shard->CommitWal());
  }
  NBLB_RETURN_NOT_OK(shard->Checkpoint());

  // The workload's reads (the revision-read trace), restricted to this shard.
  std::vector<uint64_t> keys;
  for (size_t i = 0; keys.size() < 8000; ++i) {
    const uint64_t k = data.TraceKey(i);
    if (in_shard0(k)) keys.push_back(k);
  }
  const size_t per_batch = kFrameOps / kShards;
  std::vector<Result<Row>> rows;
  for (size_t i = 0; i + per_batch <= 4000; i += per_batch) {  // warm the pool
    rows.clear();
    std::vector<uint64_t> ids(keys.begin() + i, keys.begin() + i + per_batch);
    NBLB_RETURN_NOT_OK(shard->GetBatch(ids, &rows));
  }
  std::vector<double> get_batch, btree_get;
  for (size_t i = 4000; i + per_batch <= keys.size(); i += per_batch) {
    rows.clear();
    std::vector<uint64_t> ids(keys.begin() + i, keys.begin() + i + per_batch);
    Status st;
    get_batch.push_back(TimeUs([&] { st = shard->GetBatch(ids, &rows); }) /
                        per_batch);
    NBLB_RETURN_NOT_OK(st);
  }
  const KeyCodec& codec = shard->table()->key_codec();
  BTree* index = shard->table()->index();
  for (size_t i = 4000; i < keys.size(); ++i) {
    auto enc = codec.EncodeValues({Value::Int64(static_cast<int64_t>(keys[i]))});
    if (!enc.ok()) return enc.status();
    bool found = false;
    btree_get.push_back(TimeUs([&] { found = index->Get(Slice(*enc)).ok(); }));
    if (!found) return Status::Corruption("standalone shard: key not indexed");
  }

  // Updates with a group commit every `commit_group` of them (the WAL group
  // size the served workload showed), and checkpoints.
  std::vector<double> update, commit, checkpoint;
  uint32_t version = 1u << 30;  // distinct from anything the oracle tracks
  for (size_t i = 0; i < 2000; ++i) {
    const uint64_t k = keys[i];
    const Row row = data.RowAt(k, ++version);
    Status st;
    update.push_back(TimeUs([&] { st = shard->Update(k, row); }));
    NBLB_RETURN_NOT_OK(st);
    if ((i + 1) % commit_group == 0) {
      commit.push_back(TimeUs([&] { st = shard->CommitWal(); }));
      NBLB_RETURN_NOT_OK(st);
    }
    if ((i + 1) % 400 == 0) {
      checkpoint.push_back(TimeUs([&] { st = shard->Checkpoint(); }) / 1e3);
      NBLB_RETURN_NOT_OK(st);
    }
  }

  // DiskManager: async miss reads on the shard's data file, and fsync.
  DiskManager* disk = shard->database()->disk();
  const PageId pages = disk->num_pages();
  constexpr size_t kRun = 4;
  char* arena = nullptr;
  if (::posix_memalign(reinterpret_cast<void**>(&arena), 4096,
                       kRun * kPageSize) != 0) {
    return Status::IOError("posix_memalign");
  }
  std::unique_ptr<char, decltype(&::free)> arena_guard(arena, &::free);
  char* dsts[kRun];
  for (size_t i = 0; i < kRun; ++i) dsts[i] = arena + i * kPageSize;
  Rng rng(c.seed ^ 0x1234);
  std::vector<double> submit, wait, sync;
  for (int i = 0; i < 500 && pages > kRun; ++i) {
    std::vector<PageId> ids;
    while (ids.size() < kRun) {
      const PageId id = static_cast<PageId>(rng.Uniform(pages));
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    DiskManager::IoTicket ticket;
    Status st;
    submit.push_back(
        TimeUs([&] { st = disk->SubmitReads(ids.data(), dsts, kRun, &ticket); }));
    NBLB_RETURN_NOT_OK(st);
    wait.push_back(TimeUs([&] { st = disk->WaitReads(&ticket); }));
    NBLB_RETURN_NOT_OK(st);
  }
  // Rewrite a clean page with its own bytes (the checkpoint above left the
  // pool clean), then time the fsync that makes it durable.
  for (int i = 0; i < 20; ++i) {
    const PageId id = static_cast<PageId>(rng.Uniform(pages));
    NBLB_RETURN_NOT_OK(disk->ReadPage(id, dsts[0]));
    NBLB_RETURN_NOT_OK(disk->WritePage(id, dsts[0]));
    Status st;
    sync.push_back(TimeUs([&] { st = disk->Sync(); }));
    NBLB_RETURN_NOT_OK(st);
  }
  shard.reset();
  for (const std::string& f : {o.path, Superblock::PathFor(o.path),
                               Wal::PathFor(o.path)}) {
    std::remove(f.c_str());
  }

  // Wal alone: appends of the workload's row size, committed in groups.
  const std::string wal_path = c.dir + "/probe.wal";
  std::remove(wal_path.c_str());
  WalOptions wo;
  wo.page_size = kPageSize;
  auto wal = Wal::Open(wal_path, wo);
  if (!wal.ok()) return wal.status();
  std::vector<double> append, wal_commit;
  auto codec_row = RowCodec(&o.schema).Encode(data.RowAt(1, 1));
  if (!codec_row.ok()) return codec_row.status();
  const std::string payload = *codec_row;
  for (int g = 0; g < 200; ++g) {
    for (uint32_t i = 0; i < commit_group; ++i) {
      Status st;
      append.push_back(TimeUs([&] {
        st = (*wal)->Append(Wal::Op::kPut, i, Slice(payload)).status();
      }));
      NBLB_RETURN_NOT_OK(st);
    }
    Status st;
    wal_commit.push_back(TimeUs([&] { st = (*wal)->Commit(); }));
    NBLB_RETURN_NOT_OK(st);
  }
  wal->reset();
  std::remove(wal_path.c_str());

  out->SetTiming("shard.get_batch_us_per_key", std::move(get_batch));
  out->SetTiming("index.btree_get_us", std::move(btree_get));
  out->SetTiming("shard.update_us", std::move(update));
  out->SetTiming("shard.commit_wal_us", std::move(commit));
  out->SetTiming("shard.checkpoint_ms", std::move(checkpoint));
  out->SetTiming("storage.disk.submit_us", std::move(submit));
  out->SetTiming("storage.disk.wait_us", std::move(wait));
  out->SetTiming("storage.disk.sync_us", std::move(sync));
  out->SetTiming("storage.wal.append_us", std::move(append));
  out->SetTiming("storage.wal.commit_us", std::move(wal_commit));
  return Status::OK();
}

Status MeasureRecoveryLayers(const Config& c, const std::string& image_prefix,
                             LayerMetrics* out) {
  const std::vector<std::string> image = ShardFiles(image_prefix, 0);
  const std::vector<std::string> work = ShardFiles(c.dir + "/layers", 0);
  std::vector<double> sb_read, rebuild, replay;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < image.size(); ++i) {
      NBLB_RETURN_NOT_OK(CopyFile(image[i], work[i]));
    }
    Result<SuperblockData> sb = Status::OK();
    for (int i = 0; i < 10; ++i) {
      sb_read.push_back(TimeUs([&] { sb = Superblock::Read(work[1]); }));
      if (!sb.ok()) return sb.status();
    }

    const ShardedEngineOptions e = EngineOptions(c.dir + "/layers", false);
    DatabaseOptions d;
    d.path = work[0];
    d.page_size = e.page_size;
    d.buffer_pool_frames = e.buffer_pool_frames_per_shard;
    d.buffer_pool_stripes = 1;
    d.direct_io = e.direct_io;
    {
      auto db = Database::Open(d);
      if (!db.ok()) return db.status();
      Result<Table*> t = Status::OK();
      rebuild.push_back(TimeUs([&] {
                          t = (*db)->AttachTableRebuild(
                              "data", e.schema, e.table_options,
                              sb->heap_first_page);
                        }) /
                        1e6);
      if (!t.ok()) return t.status();
    }

    WalOptions wo;
    wo.page_size = e.page_size;
    uint64_t bytes = 0;
    Status st;
    const double us = TimeUs([&] {
      auto wal = Wal::Open(work[2], wo);
      if (!wal.ok()) {
        st = wal.status();
        return;
      }
      st = (*wal)->Replay(sb->checkpoint_lsn, [&bytes](const Wal::Record& r) {
        bytes += r.payload.size() + 32;
        return Status::OK();
      });
      bytes = std::max<uint64_t>(bytes, (*wal)->durable_bytes());
    });
    NBLB_RETURN_NOT_OK(st);
    replay.push_back(us > 0 ? bytes / us : 0);  // bytes/us == MB/s
  }
  for (const std::string& f : work) std::remove(f.c_str());
  out->SetTiming("recovery.superblock_read_us", std::move(sb_read));
  out->SetTiming("recovery.rebuild_s", std::move(rebuild));
  out->SetTiming("recovery.replay_mb_s", std::move(replay));
  return Status::OK();
}

}  // namespace nblb::perfbench
