#include "index/btree_page.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "test_util.h"

namespace nblb {
namespace {

constexpr size_t kPageSize = 4096;

struct PageFixture {
  std::vector<char> buf;
  BTreePageView view;

  explicit PageFixture(uint16_t key_size = 8, uint16_t payload_size = 8,
                       uint16_t cache_item = 25,
                       PageType type = kPageTypeBTreeLeaf)
      : buf(kPageSize, 0), view(buf.data(), kPageSize) {
    BTreePageView::Init(buf.data(), kPageSize, type, key_size, payload_size,
                        cache_item);
  }
  /// Validate as a node of the default tree: 8-byte keys and leaf payloads,
  /// 25-byte cache items.
  Status Validate() const { return view.Validate(8, 8, 25); }
};

std::string K(uint64_t v) {
  std::string s(8, '\0');
  EncodeBigEndian64(s.data(), v);
  return s;
}

std::string P(uint64_t v) {
  std::string s(8, '\0');
  EncodeFixed64(s.data(), v);
  return s;
}

TEST(BTreePageTest, InitSetsHeaderAndMagic) {
  PageFixture f;
  EXPECT_EQ(f.view.type(), kPageTypeBTreeLeaf);
  EXPECT_EQ(f.view.num_entries(), 0u);
  EXPECT_EQ(f.view.key_size(), 8u);
  EXPECT_EQ(f.view.payload_size(), 8u);
  EXPECT_EQ(f.view.cache_item_size(), 25u);
  EXPECT_EQ(f.view.next(), kInvalidPageId);
  EXPECT_EQ(f.view.csn(), 0u);
  ASSERT_OK(f.Validate());
}

TEST(BTreePageTest, GeometryOnEmptyPage) {
  PageFixture f;
  EXPECT_EQ(f.view.FreeBegin(), kBTreeHeaderSize);
  EXPECT_EQ(f.view.FreeEnd(), kPageSize - kBTreeFooterSize);
  EXPECT_EQ(f.view.Capacity(),
            (kPageSize - kBTreeHeaderSize - kBTreeFooterSize) / (16 + 2));
}

TEST(BTreePageTest, InsertMaintainsSortedDirectory) {
  PageFixture f;
  Rng rng(1);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100; ++i) {
    const uint64_t k = rng.NextU64();
    keys.push_back(k);
    ASSERT_OK(f.view.InsertEntry(Slice(K(k)), Slice(P(k * 2))));
  }
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(f.view.num_entries(), 100u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(f.view.KeyAt(i).ToString(), K(keys[i])) << "position " << i;
    EXPECT_EQ(f.view.ValueAt(i), keys[i] * 2);
  }
  ASSERT_OK(f.Validate());
}

TEST(BTreePageTest, DuplicateKeyRejected) {
  PageFixture f;
  ASSERT_OK(f.view.InsertEntry(Slice(K(5)), Slice(P(1))));
  EXPECT_TRUE(f.view.InsertEntry(Slice(K(5)), Slice(P(2))).IsAlreadyExists());
  EXPECT_EQ(f.view.num_entries(), 1u);
}

TEST(BTreePageTest, FullPageRejectsInsert) {
  PageFixture f;
  const size_t cap = f.view.Capacity();
  for (size_t i = 0; i < cap; ++i) {
    ASSERT_OK(f.view.InsertEntry(Slice(K(i)), Slice(P(i))));
  }
  EXPECT_TRUE(f.view.InsertEntry(Slice(K(cap)), Slice(P(cap)))
                  .IsResourceExhausted());
  // At capacity the remaining slack is smaller than one entry + dir slot.
  EXPECT_LT(f.view.FreeBytes(), 16u + kBTreeDirEntrySize);
}

TEST(BTreePageTest, LowerBoundAndFindExact) {
  PageFixture f;
  for (uint64_t k : {10ull, 20ull, 30ull, 40ull}) {
    ASSERT_OK(f.view.InsertEntry(Slice(K(k)), Slice(P(k))));
  }
  EXPECT_EQ(f.view.LowerBound(Slice(K(5))), 0u);
  EXPECT_EQ(f.view.LowerBound(Slice(K(10))), 0u);
  EXPECT_EQ(f.view.LowerBound(Slice(K(15))), 1u);
  EXPECT_EQ(f.view.LowerBound(Slice(K(40))), 3u);
  EXPECT_EQ(f.view.LowerBound(Slice(K(45))), 4u);
  size_t pos;
  EXPECT_TRUE(f.view.FindExact(Slice(K(30)), &pos));
  EXPECT_EQ(pos, 2u);
  EXPECT_FALSE(f.view.FindExact(Slice(K(31)), &pos));
}

TEST(BTreePageTest, RemoveKeepsOrderAndZeroesFreedBytes) {
  PageFixture f;
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_OK(f.view.InsertEntry(Slice(K(k)), Slice(P(k))));
  }
  // Remove from the middle.
  ASSERT_OK(f.view.RemoveEntryAt(25));
  ASSERT_EQ(f.view.num_entries(), 49u);
  size_t pos;
  EXPECT_FALSE(f.view.FindExact(Slice(K(25)), &pos));
  // Order intact.
  for (size_t i = 1; i < f.view.num_entries(); ++i) {
    EXPECT_LT(f.view.KeyAt(i - 1).Compare(f.view.KeyAt(i)), 0);
  }
  // Freed entry bytes are zeroed (invariant 3: the cache never misreads).
  const char* freed = f.buf.data() + kBTreeHeaderSize + 49 * 16;
  for (size_t i = 0; i < 16; ++i) ASSERT_EQ(freed[i], 0);
  ASSERT_OK(f.Validate());
}

TEST(BTreePageTest, RemoveAllThenReinsert) {
  PageFixture f;
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_OK(f.view.InsertEntry(Slice(K(k)), Slice(P(k))));
  }
  while (f.view.num_entries() > 0) {
    ASSERT_OK(f.view.RemoveEntryAt(0));
  }
  EXPECT_EQ(f.view.FreeBytes(),
            kPageSize - kBTreeHeaderSize - kBTreeFooterSize);
  ASSERT_OK(f.view.InsertEntry(Slice(K(7)), Slice(P(7))));
  EXPECT_EQ(f.view.ValueAt(0), 7u);
}

TEST(BTreePageTest, RandomInsertDeleteAgainstOracle) {
  PageFixture f;
  std::map<std::string, uint64_t> oracle;
  Rng rng(42);
  for (int op = 0; op < 2000; ++op) {
    const uint64_t k = rng.Uniform(300);
    if (rng.Bernoulli(0.6) && f.view.HasRoom()) {
      if (!oracle.count(K(k))) {
        ASSERT_OK(f.view.InsertEntry(Slice(K(k)), Slice(P(op))));
        oracle[K(k)] = op;
      }
    } else if (!oracle.empty()) {
      size_t pos;
      if (f.view.FindExact(Slice(K(k)), &pos)) {
        ASSERT_OK(f.view.RemoveEntryAt(pos));
        oracle.erase(K(k));
      }
    }
    ASSERT_EQ(f.view.num_entries(), oracle.size());
  }
  // Final state matches the oracle exactly.
  size_t i = 0;
  for (const auto& [k, v] : oracle) {
    EXPECT_EQ(f.view.KeyAt(i).ToString(), k);
    EXPECT_EQ(f.view.ValueAt(i), v);
    ++i;
  }
}

TEST(BTreePageTest, StablePointMatchesPaperFormula) {
  PageFixture f;
  // S = header + usable * E/(E+D): the point both regions reach at 100% fill.
  const size_t usable = kPageSize - kBTreeHeaderSize - kBTreeFooterSize;
  const size_t expected = kBTreeHeaderSize + usable * 16 / (16 + 2);
  EXPECT_EQ(f.view.StablePoint(), expected);
  // At full capacity the entry region must end at or just below S and the
  // directory must start at or just above it.
  const size_t cap = f.view.Capacity();
  for (size_t i = 0; i < cap; ++i) {
    ASSERT_OK(f.view.InsertEntry(Slice(K(i)), Slice(P(i))));
  }
  EXPECT_LE(f.view.EntriesEnd(), f.view.StablePoint() + 16);
  EXPECT_GE(f.view.DirBegin(), f.view.StablePoint() - 2);
}

TEST(BTreePageTest, ExportAndRebuildRoundTrip) {
  PageFixture f;
  Rng rng(9);
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(f.view.InsertEntry(Slice(K(rng.NextU64())), Slice(P(i))));
  }
  std::vector<std::pair<std::string, std::string>> entries;
  f.view.ExportSorted(&entries);
  ASSERT_EQ(entries.size(), 60u);

  PageFixture g;
  ASSERT_OK(g.view.RebuildFromSorted(entries));
  ASSERT_EQ(g.view.num_entries(), 60u);
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(g.view.KeyAt(i).ToString(), entries[i].first);
  }
  // Rebuild zeroes the whole variable region before re-appending: the free
  // interval must be all zeroes.
  for (size_t off = g.view.FreeBegin(); off < g.view.FreeEnd(); ++off) {
    ASSERT_EQ(g.buf[off], 0);
  }
}

TEST(BTreePageTest, InternalChildForRouting) {
  PageFixture f(8, 4, 0, kPageTypeBTreeInternal);
  f.view.set_leftmost_child(100);
  std::string c1(4, '\0'), c2(4, '\0');
  EncodeFixed32(c1.data(), 200);
  EncodeFixed32(c2.data(), 300);
  ASSERT_OK(f.view.InsertEntry(Slice(K(10)), Slice(c1)));
  ASSERT_OK(f.view.InsertEntry(Slice(K(20)), Slice(c2)));
  EXPECT_EQ(f.view.ChildFor(Slice(K(5))), 100u);   // below first separator
  EXPECT_EQ(f.view.ChildFor(Slice(K(10))), 200u);  // exact separator
  EXPECT_EQ(f.view.ChildFor(Slice(K(15))), 200u);
  EXPECT_EQ(f.view.ChildFor(Slice(K(20))), 300u);
  EXPECT_EQ(f.view.ChildFor(Slice(K(999))), 300u);
}

TEST(BTreePageTest, ValidateCatchesCorruption) {
  PageFixture f;
  // Clobber the footer magic.
  EncodeFixed32(f.buf.data() + kPageSize - 4, 0xdeadbeef);
  EXPECT_TRUE(f.Validate().IsCorruption());
}

TEST(BTreePageTest, ValidateRejectsDirectoryEntryPastTheEntries) {
  // 43 entries: the check's 16-entry steps, its 4-entry steps and its
  // single-entry tail all run.
  PageFixture f;
  for (uint64_t k = 0; k < 43; ++k) {
    ASSERT_OK(f.view.InsertEntry(Slice(K(k * 37 % 43)), Slice(P(k))));
  }
  ASSERT_OK(f.Validate());
  // Each directory position in turn names a physical entry past the 43.
  for (size_t pos = 0; pos < 43; ++pos) {
    char* dir = f.buf.data() + kPageSize - kBTreeFooterSize -
                (pos + 1) * kBTreeDirEntrySize;
    const uint16_t good = DecodeFixed16(dir);
    for (uint16_t bad : {43, 44, 0x7fff, 0x8000, 60000, 0xffff}) {
      EncodeFixed16(dir, bad);
      EXPECT_TRUE(f.Validate().IsCorruption())
          << "position " << pos << " entry " << bad;
    }
    EncodeFixed16(dir, good);
    ASSERT_OK(f.Validate());
  }
}

TEST(BTreePageTest, ValidateRejectsAnotherTreesGeometry) {
  PageFixture f;
  EXPECT_TRUE(f.view.Validate(16, 8, 25).IsCorruption());  // key size
  EXPECT_TRUE(f.view.Validate(8, 4, 25).IsCorruption());   // payload size
  EXPECT_TRUE(f.view.Validate(8, 8, 0).IsCorruption());    // cache items
  // Internal nodes carry 4-byte child ids and no cache, whatever the
  // leaves carry.
  PageFixture internal(8, 4, 0, kPageTypeBTreeInternal);
  ASSERT_OK(internal.Validate());
  PageFixture wide(8, 8, 0, kPageTypeBTreeInternal);
  EXPECT_TRUE(wide.Validate().IsCorruption());
}

TEST(BTreePageTest, ValidateRejectsAnEntryCountPastThePage) {
  PageFixture f;
  // 0xffff entries would put the directory's start before the page; a
  // check of EntriesEnd() against DirBegin() would wrap around and pass.
  EncodeFixed16(f.buf.data() + 2, 0xffff);
  EXPECT_TRUE(f.Validate().IsCorruption());
  EncodeFixed16(f.buf.data() + 2,
                static_cast<uint16_t>(f.view.Capacity() + 1));
  EXPECT_TRUE(f.Validate().IsCorruption());
}

TEST(BTreePageTest, SetPayloadOverwritesValue) {
  PageFixture f;
  ASSERT_OK(f.view.InsertEntry(Slice(K(1)), Slice(P(10))));
  f.view.SetPayloadAt(0, Slice(P(99)));
  EXPECT_EQ(f.view.ValueAt(0), 99u);
}

}  // namespace
}  // namespace nblb
