// Allocation budget of the serving path: a warm get allocates once, for its
// result row, on its way from the pinned heap page to the reply frame; a
// reply frame is written into one buffer sized up front; and the network
// server's path (RowForm::kImage tickets, submitted as a burst, each reply
// encoded by the completion) allocates no Row at all.
//
// This binary replaces the global operator new (plain, array and nothrow) to
// count calls on every thread, engine workers included. The counts are the
// same in sanitizer builds: a replacement defined by the program takes
// precedence over the sanitizer runtime's, and it allocates through malloc,
// which the sanitizers still intercept. A build where the replacement is not
// in effect cannot count, and the tests skip with that reason.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "net/wire.h"
#include "shard/sharded_engine.h"
#include "test_util.h"
#include "workload/wikipedia.h"

namespace {
std::atomic<uint64_t> g_news{0};

void* CountedAlloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nblb {
namespace {

std::string* volatile g_sink = nullptr;

/// True when allocations reach the counting operator new.
bool Counting() {
  const uint64_t before = g_news.load();
  g_sink = new std::string(64, 'x');
  delete g_sink;
  return g_news.load() > before;
}

#define SKIP_UNLESS_COUNTING()                                           \
  if (!Counting()) {                                                     \
    GTEST_SKIP() << "this build does not route allocations through the " \
                    "test's replacement operator new, so it cannot count " \
                    "them";                                              \
  }

constexpr size_t kFrameGets = 16;
constexpr size_t kFrames = 1200;

/// Revision rows in a 4-shard, 4-worker engine whose pools hold them all.
class ServingAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WikipediaScale scale;
    scale.num_pages = 400;
    scale.revisions_per_page = 10;
    scale.seed = 23;
    data_.reset(new WikipediaSynthesizer(scale));
    opts_.num_shards = 4;
    opts_.num_workers = 4;
    opts_.path_prefix = ::testing::TempDir() + "nblb_serving_alloc";
    opts_.buffer_pool_frames_per_shard = 512;
    opts_.schema = WikipediaSynthesizer::RevisionSchema();
    opts_.table_options.key_columns = {0};
    auto engine = ShardedEngine::Open(opts_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).ValueOrDie();

    RequestBatch load;
    for (const Row& row : data_->revisions()) {
      load.push_back(Request::Insert(static_cast<uint64_t>(row[0].AsInt()),
                                     row));
      if (load.size() == 256) {
        ASSERT_TRUE(engine_->Execute(load).all_ok());
        load.clear();
      }
    }
    ASSERT_TRUE(engine_->Execute(load).all_ok());
  }

  void TearDown() override {
    engine_.reset();
    for (uint32_t s = 0; s < opts_.num_shards; ++s) {
      std::remove(
          (opts_.path_prefix + ".shard" + std::to_string(s) + ".db").c_str());
    }
  }

  /// kFrames frames of kFrameGets gets on the revision-read trace.
  std::vector<RequestBatch> Frames() {
    const std::vector<int64_t> trace =
        data_->RevisionLookupTrace(kFrames * kFrameGets);
    std::vector<RequestBatch> frames(kFrames);
    for (size_t i = 0; i < trace.size(); ++i) {
      frames[i / kFrameGets].push_back(
          Request::Get(static_cast<uint64_t>(trace[i])));
    }
    return frames;
  }

  std::unique_ptr<WikipediaSynthesizer> data_;
  ShardedEngineOptions opts_;
  std::unique_ptr<ShardedEngine> engine_;
};

TEST_F(ServingAllocTest, WarmGetAllocatesAboutOnce) {
  SKIP_UNLESS_COUNTING();
  const std::vector<RequestBatch> frames = Frames();
  // Warm the pools, the tables' scratch and the workers' buffers.
  for (const RequestBatch& frame : frames) {
    ASSERT_TRUE(engine_->Execute(frame).all_ok());
  }

  size_t failed = 0;
  const uint64_t before = g_news.load();
  for (const RequestBatch& frame : frames) {
    if (!engine_->Execute(frame).all_ok()) ++failed;
  }
  const uint64_t news = g_news.load() - before;
  ASSERT_EQ(failed, 0u);

  // The result row is the one allocation a get has to make. The rest is
  // per frame (the ticket, its result and index arrays) and per shard
  // visit (a shard queue's deque node now and then), shared by the frame's
  // gets.
  const double per_get =
      static_cast<double>(news) / static_cast<double>(kFrames * kFrameGets);
  RecordProperty("news_per_get", std::to_string(per_get));
  EXPECT_LE(per_get, 1.3) << news << " operator new calls for "
                           << kFrames * kFrameGets << " gets";
}

TEST_F(ServingAllocTest, ServedGetAllocatesNoRow) {
  SKIP_UNLESS_COUNTING();
  // The network server's path: each frame is a RowForm::kImage ticket,
  // submitted in a burst (the loop submits each pass's frames together),
  // and its completion encodes the reply frame on the worker.
  const std::vector<RequestBatch> frames = Frames();
  constexpr size_t kBurst = 8;  // frames per loop pass
  std::vector<std::string> replies(kFrames);
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0, failed = 0;
  struct Pass {
    std::mutex* mu;
    std::condition_variable* cv;
    size_t* done;
    size_t* failed;
  } pass{&mu, &cv, &done, &failed};
  std::vector<ShardedEngine::Submission> burst;
  burst.reserve(kBurst);
  auto serve = [&](std::vector<RequestBatch> batches) {
    {
      std::lock_guard<std::mutex> lk(mu);
      done = 0;
    }
    for (size_t f = 0; f < kFrames; ++f) {
      // Two pointers: the closure fits std::function's inline storage, as
      // the allocation the server's own closure makes is not the engine's.
      const Pass* p = &pass;
      std::string* reply = &replies[f];
      burst.push_back(
          {std::move(batches[f]),
           [p, reply](const BatchResult& result) {
             reply->clear();
             const bool ok = result.all_ok() &&
                             net::AppendResponseFrame(1, result, reply).ok();
             std::lock_guard<std::mutex> lk(*p->mu);
             if (!ok) ++*p->failed;
             ++*p->done;
             p->cv->notify_all();
           },
           RowForm::kImage});
      if (burst.size() == kBurst) engine_->Submit(&burst);
    }
    if (!burst.empty()) engine_->Submit(&burst);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done == kFrames; });
  };
  // Warm the pools, the tables' scratch, the workers' buffers and the
  // image-size hints.
  serve(frames);
  std::vector<RequestBatch> copies = frames;  // moved into the tickets
  for (std::string& reply : replies) std::string().swap(reply);

  const uint64_t before = g_news.load();
  serve(std::move(copies));
  const uint64_t news = g_news.load() - before;
  ASSERT_EQ(failed, 0u);

  // Each reply frame is what the Row path writes for the same gets.
  for (size_t f = 0; f < kFrames; f += 97) {
    std::string want;
    ASSERT_TRUE(
        net::AppendResponseFrame(1, engine_->Execute(frames[f]), &want).ok());
    EXPECT_EQ(replies[f], want) << "frame " << f;
  }

  // Per frame (9.3 measured): the ticket, its result and index arrays,
  // its image buffer list and one image buffer per shard it reaches, the
  // reply, and a shard queue's deque node now and then. A Row per get
  // would add 16.
  const double per_frame =
      static_cast<double>(news) / static_cast<double>(kFrames);
  RecordProperty("news_per_frame", std::to_string(per_frame));
  EXPECT_LE(per_frame, 11.0) << news << " operator new calls for " << kFrames
                             << " frames of " << kFrameGets << " gets";
}

TEST_F(ServingAllocTest, ReplyFrameAllocatesOnce) {
  SKIP_UNLESS_COUNTING();
  std::vector<RequestBatch> frames = Frames();
  const BatchResult reply = engine_->Execute(frames[0]);
  ASSERT_TRUE(reply.all_ok());
  ASSERT_EQ(reply.results.size(), kFrameGets);

  std::string out;
  const uint64_t before = g_news.load();
  const Status s = net::AppendResponseFrame(7, reply, &out);
  const uint64_t news = g_news.load() - before;
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(news, 1u) << "for a " << out.size() << "-byte frame";
}

}  // namespace
}  // namespace nblb
