#include "storage/disk_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::TempFile;

TEST(DiskManagerTest, AllocateReadWrite) {
  TempFile f("disk");
  DiskManager disk(f.path(), 4096);
  ASSERT_OK(disk.Open());
  EXPECT_EQ(disk.num_pages(), 0u);

  ASSERT_OK_AND_ASSIGN(PageId p0, disk.AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId p1, disk.AllocatePage());
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(disk.num_pages(), 2u);

  std::vector<char> w(4096, 'A'), r(4096, 0);
  ASSERT_OK(disk.WritePage(p1, w.data()));
  ASSERT_OK(disk.ReadPage(p1, r.data()));
  EXPECT_EQ(std::memcmp(w.data(), r.data(), 4096), 0);

  // Fresh page reads back zeroed.
  ASSERT_OK(disk.ReadPage(p0, r.data()));
  for (char c : r) ASSERT_EQ(c, 0);
}

TEST(DiskManagerTest, OutOfRangeAccessFails) {
  TempFile f("disk_oor");
  DiskManager disk(f.path(), 4096);
  ASSERT_OK(disk.Open());
  std::vector<char> buf(4096);
  EXPECT_TRUE(disk.ReadPage(5, buf.data()).IsOutOfRange());
  EXPECT_TRUE(disk.WritePage(5, buf.data()).IsOutOfRange());
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  TempFile f("disk_reopen");
  {
    DiskManager disk(f.path(), 4096);
    ASSERT_OK(disk.Open());
    ASSERT_OK_AND_ASSIGN(PageId p, disk.AllocatePage());
    std::vector<char> w(4096, 'Z');
    ASSERT_OK(disk.WritePage(p, w.data()));
    ASSERT_OK(disk.Sync());
    ASSERT_OK(disk.Close());
  }
  DiskManager disk(f.path(), 4096);
  ASSERT_OK(disk.Open());
  EXPECT_EQ(disk.num_pages(), 1u);
  std::vector<char> r(4096);
  ASSERT_OK(disk.ReadPage(0, r.data()));
  for (char c : r) ASSERT_EQ(c, 'Z');
}

TEST(DiskManagerTest, StatsCountOperations) {
  TempFile f("disk_stats");
  DiskManager disk(f.path(), 4096);
  ASSERT_OK(disk.Open());
  MetricsRegistry registry;
  disk.RegisterMetrics(&registry, "disk.");
  ASSERT_OK_AND_ASSIGN(PageId p, disk.AllocatePage());
  std::vector<char> buf(4096);
  ASSERT_OK(disk.WritePage(p, buf.data()));
  ASSERT_OK(disk.ReadPage(p, buf.data()));
  ASSERT_OK(disk.ReadPage(p, buf.data()));
  const MetricsSnapshot st = registry.Snapshot();
  EXPECT_EQ(st.Total("disk.allocations"), 1u);
  EXPECT_EQ(st.Total("disk.writes"), 1u);
  EXPECT_EQ(st.Total("disk.reads"), 2u);
  // A phase's counts are the difference of two snapshots.
  ASSERT_OK(disk.ReadPage(p, buf.data()));
  EXPECT_EQ((registry.Snapshot() - st).Total("disk.reads"), 1u);
}

TEST(DiskManagerTest, LatencyModelChargesVirtualClock) {
  TempFile f("disk_latency");
  VirtualClock clock;
  LatencyModelOptions lopts;
  lopts.seek_ns = 1'000'000;
  lopts.transfer_ns_per_byte = 1;
  LatencyModel model(lopts, &clock);
  DiskManager disk(f.path(), 4096, &model);
  ASSERT_OK(disk.Open());
  ASSERT_OK_AND_ASSIGN(PageId p0, disk.AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId p1, disk.AllocatePage());
  std::vector<char> buf(4096);

  clock.Reset();
  ASSERT_OK(disk.ReadPage(p0, buf.data()));
  // Random read: seek + transfer.
  EXPECT_EQ(clock.NowNs(), 1'000'000u + 4096u);
  // Sequential read (p0 -> p1): transfer only.
  ASSERT_OK(disk.ReadPage(p1, buf.data()));
  EXPECT_EQ(clock.NowNs(), 1'000'000u + 2 * 4096u);
  // Backward jump: seek again.
  ASSERT_OK(disk.ReadPage(p0, buf.data()));
  EXPECT_EQ(clock.NowNs(), 2'000'000u + 3 * 4096u);
}

TEST(DiskManagerTest, DisabledLatencyModelChargesNothing) {
  TempFile f("disk_nolat");
  VirtualClock clock;
  LatencyModelOptions lopts;
  lopts.enabled = false;
  LatencyModel model(lopts, &clock);
  DiskManager disk(f.path(), 4096, &model);
  ASSERT_OK(disk.Open());
  ASSERT_OK_AND_ASSIGN(PageId p, disk.AllocatePage());
  std::vector<char> buf(4096);
  ASSERT_OK(disk.ReadPage(p, buf.data()));
  EXPECT_EQ(clock.NowNs(), 0u);
}

TEST(DiskManagerTest, DirectIoRoundTripsUnalignedCallerBuffers) {
  TempFile f("disk_direct");
  DiskManager disk(f.path(), 4096, /*latency=*/nullptr, /*direct_io=*/true);
  ASSERT_OK(disk.Open());
  MetricsRegistry registry;
  disk.RegisterMetrics(&registry, "disk.");
  // On tmpfs-style filesystems O_DIRECT is refused and the manager degrades
  // to buffered I/O; either way the data path must round-trip.
  ASSERT_OK_AND_ASSIGN(PageId p0, disk.AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId p1, disk.AllocatePage());

  // Deliberately unaligned caller buffers: the bounce buffer must hide the
  // O_DIRECT alignment requirements.
  std::vector<char> raw(4096 + 1);
  char* unaligned = raw.data() + 1;
  for (size_t i = 0; i < 4096; ++i) {
    unaligned[i] = static_cast<char>((i * 31 + 7) % 251);
  }
  ASSERT_OK(disk.WritePage(p1, unaligned));
  std::vector<char> back_raw(4096 + 1);
  char* back = back_raw.data() + 1;
  ASSERT_OK(disk.ReadPage(p1, back));
  EXPECT_EQ(std::memcmp(unaligned, back, 4096), 0);

  // Freshly allocated pages read back zeroed.
  ASSERT_OK(disk.ReadPage(p0, back));
  for (size_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(back[i], 0) << "offset " << i;
  }
  const MetricsSnapshot st = registry.Snapshot();
  EXPECT_EQ(st.Total("disk.reads"), 2u);
  EXPECT_EQ(st.Total("disk.writes"), 1u);
}

}  // namespace
}  // namespace nblb
