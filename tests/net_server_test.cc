// NetServer end-to-end tests: request round trips over loopback TCP, get
// replies transcoded from stored images equal to the engine's own rows on a
// schema of every type, admission-control busy shedding (and no shedding of
// back-to-back calls under a cap of one), protocol-error
// connection teardown, client disconnect mid-request, clean engine drain
// when clients are killed under load, read backpressure against a client
// that never reads its replies, Start failing when the event loop cannot be
// set up, and the names the server's threads carry.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/event_ring.h"
#include "shard/sharded_engine.h"
#include "test_util.h"

namespace nblb::net {
namespace {

Schema KvSchema() {
  return Schema({{"id", TypeId::kInt64, 0}, {"payload", TypeId::kChar, 64}});
}

Row KvRow(int64_t id) {
  return {Value::Int64(id), Value::Char("row-" + std::to_string(id))};
}

ShardedEngineOptions EngineOptions(const std::string& tag) {
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.num_workers = 2;
  opts.path_prefix = ::testing::TempDir() + "nblb_net_" + tag;
  opts.buffer_pool_frames_per_shard = 256;
  opts.schema = KvSchema();
  opts.table_options.key_columns = {0};
  return opts;
}

void Cleanup(const ShardedEngineOptions& opts) {
  for (uint32_t s = 0; s < opts.num_shards; ++s) {
    std::remove(
        (opts.path_prefix + ".shard" + std::to_string(s) + ".db").c_str());
  }
}

uint64_t Counter(const NetServer& server, const std::string& name) {
  return server.MetricsSnapshotNow().counters.at(name);
}

std::unique_ptr<NetClient> MustConnect(const NetServer& server) {
  NetClient::Options copts;
  copts.port = server.port();
  auto client = NetClient::Connect(copts);
  EXPECT_OK(client.status());
  return std::move(client).ValueOrDie();
}

// Generous default: under TSan on a loaded single-core CI runner the whole
// process can stall for seconds at a time, and only failing runs pay it.
bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// The names of this process's threads (/proc/self/task/*/comm).
std::vector<std::string> ThreadNames() {
  std::vector<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.push_back(name);
  }
  return names;
}

TEST(NetServerTest, ServerThreadsAreNamed) {
  // Every thread a server runs names itself, so `top -H` and
  // /proc/<pid>/task/*/comm attribute its CPU without a profiler.
  ShardedEngineOptions eopts = EngineOptions("names");
  eopts.num_shards = 4;
  eopts.num_workers = 4;
  eopts.flusher_interval_us = 1000;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));

  // The fallback I/O pool starts with a disk's first async I/O. Run one on
  // a disk that asks for the pool; NBLB_IO_BACKEND=uring overrides that,
  // and then no pool runs.
  nblb::testing::TempFile file("names_io");
  AsyncIoOptions aio;
  aio.backend = IoBackend::kThreads;
  DiskManager disk(file.path(), 4096, nullptr, false, aio);
  ASSERT_OK(disk.Open());
  ASSERT_OK_AND_ASSIGN(PageId page, disk.AllocatePage());
  std::string buf(4096, '\0');
  char* dst = buf.data();
  DiskManager::IoTicket ticket;
  ASSERT_OK(disk.SubmitReads(&page, &dst, 1, &ticket));
  ASSERT_OK(disk.WaitReads(&ticket));

  // The server's threads: the net loop, one per worker and, under the
  // fallback, the I/O pool. None flushes: with flush passes on, each
  // shard's worker runs its own.
  std::vector<std::string> want = {"nblb-net"};
  for (uint32_t w = 0; w < engine->num_workers(); ++w) {
    want.push_back("nblb-worker" + std::to_string(w));
  }
  const bool io_pool = disk.io_backend_in_use() == IoBackend::kThreads;
  // Each thread names itself as it starts. Until it does, it carries the
  // name of the thread that started it.
  std::vector<std::string> names;
  const bool all = WaitUntil([&] {
    names = ThreadNames();
    for (const std::string& name : want) {
      if (std::count(names.begin(), names.end(), name) != 1) return false;
    }
    return !io_pool ||
           std::find(names.begin(), names.end(), "nblb-io") != names.end();
  });
  std::string seen;
  for (const std::string& name : names) seen += name + " ";
  EXPECT_TRUE(all) << "threads: " << seen;
  for (const std::string& name : names) {
    if (name.rfind("nblb-", 0) != 0) continue;
    const bool expected =
        std::find(want.begin(), want.end(), name) != want.end() ||
        (io_pool && name == "nblb-io");
    EXPECT_TRUE(expected) << "unexpected thread " << name
                          << "; threads: " << seen;
  }
  EXPECT_EQ(std::count(names.begin(), names.end(), "nblb-flush"), 0)
      << "threads: " << seen;

  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, RoundTripAllRequestKinds) {
  ShardedEngineOptions eopts = EngineOptions("roundtrip");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  ASSERT_NE(server->port(), 0);
  auto client = MustConnect(*server);

  // Insert 100 rows over the wire.
  RequestBatch inserts;
  for (int64_t id = 0; id < 100; ++id) {
    inserts.push_back(Request::Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(BatchResult ins, client->Call(inserts));
  ASSERT_EQ(ins.results.size(), 100u);
  EXPECT_TRUE(ins.all_ok());

  // Point lookups, projected lookups, a miss, an update, a delete.
  RequestBatch mixed;
  mixed.push_back(Request::Get(7));
  mixed.push_back(Request::GetProjected(8, {1}));
  mixed.push_back(Request::Get(100));  // miss
  mixed.push_back(Request::Update(9, {Value::Int64(9), Value::Char("nine")}));
  mixed.push_back(Request::Delete(10));
  ASSERT_OK_AND_ASSIGN(BatchResult got, client->Call(mixed));
  ASSERT_EQ(got.results.size(), 5u);
  ASSERT_OK(got.results[0].status);
  ASSERT_EQ(got.results[0].row.size(), 2u);
  EXPECT_EQ(got.results[0].row[0].AsInt(), 7);
  EXPECT_EQ(got.results[0].row[1].AsString(), "row-7");
  ASSERT_OK(got.results[1].status);
  ASSERT_EQ(got.results[1].row.size(), 1u);  // projected: payload only
  EXPECT_EQ(got.results[1].row[0].AsString(), "row-8");
  EXPECT_TRUE(got.results[2].status.IsNotFound());
  ASSERT_OK(got.results[3].status);
  ASSERT_OK(got.results[4].status);

  // The update and delete landed (verified through the wire again).
  ASSERT_OK_AND_ASSIGN(BatchResult check,
                       client->Call({Request::Get(9), Request::Get(10)}));
  ASSERT_OK(check.results[0].status);
  EXPECT_EQ(check.results[0].row[1].AsString(), "nine");
  EXPECT_TRUE(check.results[1].status.IsNotFound());

  const auto counters = server->MetricsSnapshotNow().counters;
  EXPECT_EQ(counters.at("net.accepts"), 1u);
  EXPECT_EQ(counters.at("net.frames_in"), 3u);
  EXPECT_EQ(counters.at("net.responses"), 3u);
  EXPECT_EQ(counters.at("net.decode_errors"), 0u);
  EXPECT_EQ(counters.at("net.busy_shed"), 0u);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

/// id, then one column of every other type, a CHAR whose padding must be
/// trimmed, and two VARCHARs (one left empty or filled by turns).
Schema EveryTypeSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"flag", TypeId::kBool, 0},
                 {"i8", TypeId::kInt8, 0},
                 {"i16", TypeId::kInt16, 0},
                 {"i32", TypeId::kInt32, 0},
                 {"ts", TypeId::kTimestamp, 0},
                 {"score", TypeId::kFloat64, 0},
                 {"code", TypeId::kChar, 10},
                 {"text", TypeId::kVarchar, 40},
                 {"tag", TypeId::kVarchar, 4}});
}

Row EveryTypeRow(int64_t id) {
  const std::string text(static_cast<size_t>(id % 41), 'a' + id % 26);
  return {Value::Int64(id),
          Value::Bool(id % 2 == 0),
          Value::Int8(static_cast<int8_t>(-id)),
          Value::Int16(static_cast<int16_t>(-300 * id)),
          Value::Int32(static_cast<int32_t>(-70000 * id)),
          Value::Timestamp(static_cast<uint32_t>(2147483648u + id)),
          Value::Float64(id % 5 == 0 ? std::nan("") : -1.5 * id),
          Value::Char(id % 3 == 0 ? "" : "c " + std::to_string(id)),
          Value::Varchar(text),
          Value::Varchar(id % 2 == 0 ? "" : "full")};
}

/// Same type and value; floats by their bits, so a NaN equals itself.
bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].type() != b[c].type()) return false;
    if (a[c].type() == TypeId::kFloat64) {
      const double x = a[c].AsDouble(), y = b[c].AsDouble();
      if (std::memcmp(&x, &y, 8) != 0) return false;
    } else if (a[c] != b[c]) {
      return false;
    }
  }
  return true;
}

TEST(NetServerTest, GetRepliesEqualTheEnginesRowsForEveryType) {
  // The server asks for stored images and transcodes them; Execute decodes
  // Rows. Over the socket, every get must read exactly the row Execute
  // returns, misses included.
  ShardedEngineOptions eopts = EngineOptions("every_type");
  eopts.num_shards = 4;
  eopts.num_workers = 2;
  eopts.schema = EveryTypeSchema();
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  RequestBatch load;
  for (int64_t id = 0; id < 300; ++id) {
    load.push_back(Request::Insert(id, EveryTypeRow(id)));
  }
  ASSERT_TRUE(engine->Execute(load).all_ok());
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);

  // Pipelined 16-get frames over every id and a few that miss.
  std::vector<RequestBatch> frames;
  for (int64_t id = 0; id < 320; id += 16) {
    RequestBatch frame;
    for (int64_t k = id; k < id + 16; ++k) frame.push_back(Request::Get(k));
    frames.push_back(std::move(frame));
  }
  std::vector<uint64_t> ids;
  for (const RequestBatch& frame : frames) {
    ASSERT_OK_AND_ASSIGN(uint64_t rid, client->Send(frame));
    ids.push_back(rid);
  }
  size_t rows = 0;
  for (size_t f = 0; f < frames.size(); ++f) {
    ASSERT_OK_AND_ASSIGN(BatchResult got, client->Wait(ids[f]));
    const BatchResult want = engine->Execute(frames[f]);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (size_t i = 0; i < want.results.size(); ++i) {
      const RequestResult& g = got.results[i];
      const RequestResult& w = want.results[i];
      EXPECT_EQ(g.status.code(), w.status.code())
          << "frame " << f << " get " << i;
      EXPECT_EQ(g.shard, w.shard);
      EXPECT_TRUE(SameRow(g.row, w.row)) << "frame " << f << " get " << i;
      if (w.status.ok()) ++rows;
    }
  }
  EXPECT_EQ(rows, 300u);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, PipelinedResponsesPairUpByRequestId) {
  ShardedEngineOptions eopts = EngineOptions("pipeline");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);

  // 32 in flight at once; responses may arrive out of order, the client
  // pairs them back up by id.
  std::vector<uint64_t> ids;
  for (int b = 0; b < 32; ++b) {
    ASSERT_OK_AND_ASSIGN(
        uint64_t id,
        client->Send({Request::Get(b), Request::Get(63 - b)}));
    ids.push_back(id);
  }
  for (size_t b = 0; b < ids.size(); ++b) {
    ASSERT_OK_AND_ASSIGN(BatchResult result, client->Wait(ids[b]));
    ASSERT_EQ(result.results.size(), 2u);
    ASSERT_OK(result.results[0].status);
    EXPECT_EQ(result.results[0].row[0].AsInt(), static_cast<int64_t>(b));
    ASSERT_OK(result.results[1].status);
    EXPECT_EQ(result.results[1].row[0].AsInt(), static_cast<int64_t>(63 - b));
  }
  EXPECT_EQ(client->outstanding(), 0u);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, ConcurrentClientsAllServed) {
  ShardedEngineOptions eopts = EngineOptions("concurrent");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 256; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));

  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 50;
  std::atomic<uint64_t> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = MustConnect(*server);
      for (int b = 0; b < kCallsPerClient; ++b) {
        RequestBatch batch;
        for (int k = 0; k < 4; ++k) {
          batch.push_back(Request::Get((t * 37 + b * 4 + k) % 256));
        }
        auto result = client->Call(batch);
        ASSERT_OK(result.status());
        for (const RequestResult& r : result->results) {
          ASSERT_OK(r.status);
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), static_cast<uint64_t>(kClients * kCallsPerClient * 4));
  const auto counters = server->MetricsSnapshotNow().counters;
  EXPECT_EQ(counters.at("net.accepts"), static_cast<uint64_t>(kClients));
  EXPECT_EQ(counters.at("net.frames_in"),
            static_cast<uint64_t>(kClients * kCallsPerClient));
  EXPECT_EQ(counters.at("net.responses"), counters.at("net.frames_in"));

  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, AdmissionControlShedsWithBusyReplies) {
  ShardedEngineOptions eopts = EngineOptions("shed");
  eopts.num_shards = 1;
  eopts.num_workers = 1;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  NetServerOptions sopts;
  sopts.max_inflight_per_conn = 1;  // second pipelined frame must shed
  ASSERT_OK_AND_ASSIGN(auto server, NetServer::Start(sopts, engine.get()));
  auto client = MustConnect(*server);

  // Write a burst of frames in ONE send so they all arrive together: the
  // loop decodes them back-to-back while the first is still in the engine,
  // so later frames are over the per-connection cap and shed.
  constexpr int kBurst = 64;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    AppendRequestFrame(static_cast<uint64_t>(i + 1),
                       {Request::Get(static_cast<uint64_t>(i % 64))}, &burst);
  }
  ASSERT_OK(client->SendRaw(burst.data(), burst.size()));
  // Register the pending sizes the raw write bypassed.
  int busy = 0, served = 0;
  FrameDecoder decoder;
  std::vector<char> rbuf(64 * 1024);
  Frame frame;
  while (busy + served < kBurst) {
    const ssize_t n = ::recv(client->fd(), rbuf.data(), rbuf.size(), 0);
    ASSERT_GT(n, 0);
    decoder.Append(rbuf.data(), static_cast<size_t>(n));
    while (decoder.Pop(&frame) == FrameDecoder::Next::kFrame) {
      if (frame.type == FrameType::kBusy) {
        ++busy;
      } else {
        ASSERT_EQ(frame.type, FrameType::kResponse);
        ++served;
      }
    }
  }
  EXPECT_GT(served, 0);
  EXPECT_GT(busy, 0) << "64 back-to-back frames with a cap of 1 in flight "
                        "must shed at least one";
  EXPECT_EQ(Counter(*server, "net.busy_shed"), static_cast<uint64_t>(busy));

  // The shed left a flight-recorder trace.
  bool found_shed_event = false;
  for (const auto& ring : FlightRecorder::Instance().SnapshotAll()) {
    for (const auto& rec : ring) {
      if (rec.code == FlightEvent::kNetShed) found_shed_event = true;
    }
  }
  EXPECT_TRUE(found_shed_event);

  // The connection survives shedding: a fresh call still works.
  ASSERT_OK_AND_ASSIGN(BatchResult after, client->Call({Request::Get(1)}));
  ASSERT_OK(after.results[0].status);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

// A client that sends its next frame only after it reads the last reply
// has nothing in flight, so a cap of one frame per connection must never
// shed it: the reply's slot is released before the reply is queued.
TEST(NetServerTest, AdmissionCapOfOneServesBackToBackCalls) {
  ShardedEngineOptions eopts = EngineOptions("seq");
  eopts.num_shards = 1;
  eopts.num_workers = 1;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  NetServerOptions sopts;
  sopts.max_inflight_per_conn = 1;
  ASSERT_OK_AND_ASSIGN(auto server, NetServer::Start(sopts, engine.get()));
  auto client = MustConnect(*server);
  constexpr int kCalls = 2000;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_OK_AND_ASSIGN(BatchResult got,
                         client->Call({Request::Get(static_cast<uint64_t>(
                             i % 64))}));
    ASSERT_TRUE(got.results[0].status.ok())
        << "call " << i << ": " << got.results[0].status.ToString();
  }
  EXPECT_EQ(Counter(*server, "net.busy_shed"), 0u);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, GarbageBytesCloseTheConnection) {
  ShardedEngineOptions eopts = EngineOptions("garbage");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);
  ASSERT_TRUE(WaitUntil([&] { return server->open_connections() == 1; }));

  std::string garbage(64, '\xee');
  ASSERT_OK(client->SendRaw(garbage.data(), garbage.size()));

  // The server must close the connection: recv drains to EOF.
  char buf[256];
  ssize_t n;
  do {
    n = ::recv(client->fd(), buf, sizeof(buf), 0);
  } while (n > 0);
  EXPECT_EQ(n, 0);
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 0; }));
  EXPECT_GE(Counter(*server, "net.decode_errors"), 1u);

  // The server keeps serving fresh connections afterwards.
  auto client2 = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(BatchResult result, client2->Call({Request::Get(1)}));
  EXPECT_TRUE(result.results[0].status.IsNotFound());

  client.reset();
  client2.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, OversizedLengthPrefixClosesTheConnection) {
  ShardedEngineOptions eopts = EngineOptions("oversize");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  NetServerOptions sopts;
  sopts.max_frame_payload = 4096;
  ASSERT_OK_AND_ASSIGN(auto server, NetServer::Start(sopts, engine.get()));
  auto client = MustConnect(*server);

  // Valid type byte, absurd length prefix: the server must reject from the
  // header alone instead of buffering toward a 64 MiB payload.
  std::string header(kFrameHeaderBytes, '\0');
  header[2] = '\x00';
  header[3] = '\x04';  // 0x04000000 = 64 MiB
  header[4] = static_cast<char>(FrameType::kRequest);
  ASSERT_OK(client->SendRaw(header.data(), header.size()));

  char buf[64];
  ssize_t n;
  do {
    n = ::recv(client->fd(), buf, sizeof(buf), 0);
  } while (n > 0);
  EXPECT_EQ(n, 0);
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 0; }));
  EXPECT_GE(Counter(*server, "net.decode_errors"), 1u);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, ClientDisconnectMidRequestDrainsCleanly) {
  ShardedEngineOptions eopts = EngineOptions("disconnect");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  {
    auto client = MustConnect(*server);
    // Fire a pipeline of requests and vanish without reading any response.
    for (int b = 0; b < 16; ++b) {
      RequestBatch batch;
      for (int k = 0; k < 8; ++k) batch.push_back(Request::Get(k));
      ASSERT_OK(client->Send(batch).status());
    }
  }  // ~NetClient closes the socket with responses still in flight

  // Every submitted batch must still complete and decrement the in-flight
  // count — a leaked ticket would leave it non-zero forever.
  EXPECT_TRUE(WaitUntil([&] { return server->inflight() == 0; }));
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 0; }));

  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, KillClientsUnderLoadLeavesEngineClean) {
  ShardedEngineOptions eopts = EngineOptions("killload");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 128; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));

  constexpr int kClients = 6;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = MustConnect(*server);
      uint64_t sent = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        RequestBatch batch;
        for (int k = 0; k < 8; ++k) {
          batch.push_back(Request::Get((t * 17 + k + sent) % 128));
        }
        if (!client->Send(batch).ok()) break;
        ++sent;
        // Stay loosely pipelined: drain when a window builds up.
        if (client->outstanding() >= 8) {
          // Ids are sequential per client starting at 1.
          if (!client->Wait(sent - 7).ok()) break;
        }
      }
      // Abrupt exit: the client destructor closes the socket with up to 8
      // responses still in flight.
    });
  }
  // Let load build, then kill every client mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& t : threads) t.join();

  // Clean drain: no leaked tickets (in-flight returns to zero), every
  // connection reaped, and the engine still serves.
  EXPECT_TRUE(WaitUntil([&] { return server->inflight() == 0; }));
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 0; }));
  const auto counters = server->MetricsSnapshotNow().counters;
  EXPECT_GT(counters.at("net.frames_in"), 0u);
  EXPECT_EQ(counters.at("net.accepts"), static_cast<uint64_t>(kClients));
  EXPECT_EQ(counters.at("net.closes"), static_cast<uint64_t>(kClients));
  server.reset();

  BatchResult after = engine->Execute({Request::Get(1)});
  ASSERT_OK(after.results[0].status);
  EXPECT_EQ(engine->MetricsSnapshotNow().Total("engine.busy_rejections"), 0u);
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, MetricsDocumentMergesNetAndEngineLayers) {
  ShardedEngineOptions eopts = EngineOptions("metrics");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(BatchResult r,
                       client->Call({Request::Insert(1, KvRow(1))}));
  ASSERT_OK(r.results[0].status);

  const MetricsSnapshot snap = server->MetricsSnapshotNow();
  EXPECT_EQ(snap.counters.at("net.frames_in"), 1u);
  EXPECT_EQ(snap.counters.at("net.responses"), 1u);
  EXPECT_GT(snap.counters.at("net.bytes_in"), 0u);
  EXPECT_GE(snap.counters.at("engine.batches"), 1u);
  EXPECT_EQ(snap.gauges.at("net.open_connections"), 1.0);
  EXPECT_GE(snap.histograms.at("net.reply_latency_us").count(), 1u);
  EXPECT_GE(snap.histograms.at("net.batch_requests").count(), 1u);
  // Per-shard layers came along in the merge.
  EXPECT_NE(snap.counters.find("shard0.disk.reads"), snap.counters.end());

  const std::string json = server->DumpMetrics();
  EXPECT_NE(json.find("\"net.frames_in\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.batches\""), std::string::npos);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, IdleConnectionsAreReapedActiveOnesSurvive) {
  ShardedEngineOptions eopts = EngineOptions("idle");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 16; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  NetServerOptions sopts;
  sopts.idle_timeout_ms = 100;
  ASSERT_OK_AND_ASSIGN(auto server, NetServer::Start(sopts, engine.get()));

  auto idle_client = MustConnect(*server);
  auto active_client = MustConnect(*server);
  ASSERT_TRUE(WaitUntil([&] { return server->open_connections() == 2; }));

  // Keep one connection busy while the other goes quiet: the sweep must
  // reap exactly the quiet one. Activity (any recv/send) resets the clock,
  // so the active connection stays alive across many sweep periods.
  const bool reaped = WaitUntil([&] {
    auto r = active_client->Call({Request::Get(1)});
    EXPECT_OK(r.status());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Counter(*server, "net.idle_closed") >= 1;
  });
  EXPECT_TRUE(reaped);
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 1; }));

  // The reaped socket drains to EOF on the client side.
  char buf[64];
  ssize_t n;
  do {
    n = ::recv(idle_client->fd(), buf, sizeof(buf), 0);
  } while (n > 0);
  EXPECT_EQ(n, 0);

  // The survivor still round-trips, and the reap left a flight event and
  // the net.idle_closed counter in the merged metrics.
  ASSERT_OK_AND_ASSIGN(BatchResult after, active_client->Call({Request::Get(2)}));
  ASSERT_OK(after.results[0].status);
  bool found_idle_event = false;
  for (const auto& ring : FlightRecorder::Instance().SnapshotAll()) {
    for (const auto& rec : ring) {
      if (rec.code == FlightEvent::kNetIdleClose) found_idle_event = true;
    }
  }
  EXPECT_TRUE(found_idle_event);
  EXPECT_GE(server->MetricsSnapshotNow().counters.at("net.idle_closed"), 1u);

  idle_client.reset();
  active_client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

// A client that pipelines requests but never reads its replies must not
// grow the server without bound: once the connection's output is blocked,
// the loop stops reading it, so the client's sends stall long before all
// of its frames are decoded. Other connections are still served.
TEST(NetServerTest, ClientThatNeverReadsStopsBeingRead) {
  ShardedEngineOptions eopts = EngineOptions("slowreader");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  ASSERT_OK(engine->Insert(1, KvRow(1)));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));

  // A raw socket whose receive buffer is set before connect, so the window
  // it advertises stays small and the server's replies back up fast.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // 1M one-get frames of 29 B; the sender blocks once the socket buffers
  // between it and a server that stopped reading are full.
  constexpr uint64_t kFrames = 1000000;
  constexpr uint64_t kFramesPerChunk = 1000;
  std::string chunk;
  for (uint64_t i = 0; i < kFramesPerChunk; ++i) {
    ASSERT_OK(AppendRequestFrame(i + 1, {Request::Get(2)}, &chunk));
  }
  std::thread sender([&] {
    for (uint64_t c = 0; c < kFrames / kFramesPerChunk; ++c) {
      size_t off = 0;
      while (off < chunk.size()) {
        const ssize_t n = ::send(fd, chunk.data() + off, chunk.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          return;  // the shutdown below
        }
        off += static_cast<size_t>(n);
      }
    }
  });

  // Wait until the server stops decoding: frames_in unchanged for 500 ms.
  uint64_t frames_in = 0;
  int unchanged = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (unchanged < 5 && frames_in < kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t now_in = Counter(*server, "net.frames_in");
    unchanged = now_in == frames_in ? unchanged + 1 : 0;
    frames_in = now_in;
  }
  EXPECT_LT(frames_in, kFrames / 2)
      << "the server kept reading a client that reads none of its replies";

  // A well-behaved client on another connection is still served.
  auto client = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(BatchResult r, client->Call({Request::Get(1)}));
  ASSERT_OK(r.results[0].status);

  ::shutdown(fd, SHUT_RDWR);  // fails the blocked send
  sender.join();
  ::close(fd);
  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

// Start sets up the event loop before it returns. When the epoll set cannot
// be created (the fd limit leaves room for the listen socket and the
// eventfd only), Start fails instead of returning a server whose port
// completes handshakes but never answers.
TEST(NetServerTest, StartFailsWhenTheEventLoopCannotBeSetUp) {
  ShardedEngineOptions eopts = EngineOptions("fdcap");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));

  // The two lowest free fds, which Start's socket and eventfd will take.
  const int a = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const int b = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(a, 0);
  ASSERT_GT(b, a);
  ::close(a);
  ::close(b);

  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(b) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);
  auto capped_start = NetServer::Start(NetServerOptions{}, engine.get());
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_FALSE(capped_start.ok());
  EXPECT_TRUE(capped_start.status().IsIOError())
      << capped_start.status().ToString();

  // The failed Start closed what it opened.
  const int again = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  EXPECT_EQ(again, a);
  ::close(again);

  // With the limit restored, a new Start serves.
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(BatchResult r, client->Call({Request::Get(3)}));
  EXPECT_TRUE(r.results[0].status.IsNotFound());

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

// The loop submits on its own thread, so an engine whose bounded queues
// block the submitter would stall every connection behind one full shard
// queue. Start refuses that engine; the same bound with fail-fast serves.
TEST(NetServerTest, StartRejectsAnEngineWhoseBoundedQueuesBlock) {
  ShardedEngineOptions blocking = EngineOptions("blockq");
  blocking.max_queue_depth = 4;
  blocking.busy_fail_fast = false;
  {
    ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(blocking));
    auto start = NetServer::Start(NetServerOptions{}, engine.get());
    ASSERT_FALSE(start.ok());
    EXPECT_TRUE(start.status().IsInvalidArgument())
        << start.status().ToString();
  }
  Cleanup(blocking);

  ShardedEngineOptions fail_fast = EngineOptions("failfastq");
  fail_fast.max_queue_depth = 4;
  fail_fast.busy_fail_fast = true;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(fail_fast));
  ASSERT_OK(engine->Insert(5, KvRow(5)));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(BatchResult r, client->Call({Request::Get(5)}));
  ASSERT_OK(r.results[0].status);
  ASSERT_EQ(r.results[0].row.size(), 2u);
  EXPECT_EQ(r.results[0].row[1].AsString(), "row-5");

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(fail_fast);
}

}  // namespace
}  // namespace nblb::net
