// Seeded mutational fuzz tests for the superblock reader: Superblock::Read
// over mutated sidecars, and Shard::Open's reattach over them. The corpus
// fills one or both slots with superblocks of 0-8 columns of every TypeId,
// key and cached column lists and random scalars. Mutations: bit flips and
// byte stores in a slot's header or payload, payload_len edits, truncation,
// and edits of the key, cached and column counts and of a column's name
// length. A payload mutation re-stamps the slot's CRC, so the decoder, not
// the checksum, meets the mutated bytes. Seeds and iteration counts are
// fixed, so a failure reproduces.
//
// Oracle: nothing crashes (the asan-ubsan CI job runs this binary under
// AddressSanitizer and UBSan), no single allocation exceeds kMaxAllocation
// (a count taken from unchecked bytes asks for gigabytes), and
//   - Read returns an error only when no slot is intact; otherwise exactly
//     one slot's data: an intact slot's as written (the newer when both
//     are intact), or a mutated slot's that re-encodes to exactly its bytes;
//   - Shard::Open with truncate=false returns an error, or serves every
//     acked key with its row.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "shard/shard.h"
#include "storage/superblock.h"
#include "storage/wal.h"
#include "test_util.h"

// Every allocation in this binary comes through here. A decoder that sizes
// a vector from an unchecked on-disk count would ask for up to 16 GiB (2^32
// four-byte column ids); refusing any single request over kMaxAllocation
// fails the test with std::bad_alloc instead of exhausting the machine.
namespace {
constexpr size_t kMaxAllocation = size_t{64} << 20;

void* CappedAlloc(size_t n) {
  if (n > kMaxAllocation) throw std::bad_alloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(size_t n) { return CappedAlloc(n); }
void* operator new[](size_t n) { return CappedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace nblb {
namespace {

// The sidecar's layout (storage/superblock.cc): two 4096-byte slots, each a
// 16-byte header (magic, format, payload_len, crc32 of the payload) and the
// payload. The payload's fixed scalars take 35 bytes; the key column count
// follows them.
constexpr size_t kSlotSize = 4096;
constexpr size_t kHeaderSize = 16;
constexpr size_t kMaxPayload = kSlotSize - kHeaderSize;
constexpr size_t kKeyCountOffset = 35;
// Fields from here on are the table flags, column lists and schema, which
// Shard::Open checks against its own options.
constexpr size_t kCheckedFieldsOffset = 33;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool SameData(const SuperblockData& a, const SuperblockData& b) {
  if (a.version != b.version || a.checkpoint_lsn != b.checkpoint_lsn ||
      a.page_size != b.page_size || a.num_pages != b.num_pages ||
      a.heap_first_page != b.heap_first_page ||
      a.btree_meta_page != b.btree_meta_page ||
      a.clean_shutdown != b.clean_shutdown ||
      a.reuse_free_slots != b.reuse_free_slots ||
      a.enable_index_cache != b.enable_index_cache ||
      a.key_columns != b.key_columns ||
      a.cached_columns != b.cached_columns ||
      a.columns.size() != b.columns.size()) {
    return false;
  }
  for (size_t i = 0; i < a.columns.size(); ++i) {
    if (a.columns[i].name != b.columns[i].name ||
        a.columns[i].type != b.columns[i].type ||
        a.columns[i].length != b.columns[i].length) {
      return false;
    }
  }
  return true;
}

SuperblockData RandomSuperblock(Rng* rng, uint64_t version) {
  SuperblockData d;
  d.version = version;
  d.checkpoint_lsn = rng->NextU64() >> rng->Uniform(64);
  d.page_size = static_cast<uint32_t>(4096u << rng->Uniform(3));
  d.num_pages = static_cast<uint32_t>(rng->NextU64());
  d.heap_first_page = static_cast<PageId>(rng->Uniform(1024));
  d.btree_meta_page =
      rng->Uniform(8) == 0 ? kInvalidPageId
                           : static_cast<PageId>(rng->Uniform(1024));
  d.clean_shutdown = rng->Bernoulli(0.5);
  d.reuse_free_slots = rng->Bernoulli(0.5);
  d.enable_index_cache = rng->Bernoulli(0.5);
  const size_t ncols = rng->Uniform(9);
  for (size_t i = 0; i < ncols; ++i) {
    Column col;
    col.type = static_cast<TypeId>(rng->Uniform(9));
    col.length = (col.type == TypeId::kChar || col.type == TypeId::kVarchar)
                     ? 1 + rng->Uniform(255)
                     : 0;
    col.name = rng->NextString(rng->Uniform(4) == 0 ? 0 : 1 + rng->Uniform(24));
    d.columns.push_back(col);
  }
  const size_t nkey = rng->Uniform(4);
  for (size_t i = 0; i < nkey; ++i) {
    d.key_columns.push_back(static_cast<uint32_t>(rng->Uniform(ncols + 1)));
  }
  const size_t ncached = rng->Uniform(ncols + 2);
  for (size_t i = 0; i < ncached; ++i) {
    d.cached_columns.push_back(static_cast<uint32_t>(rng->Uniform(ncols + 1)));
  }
  return d;
}

uint32_t PayloadLen(const char* slot) { return DecodeFixed32(slot + 8); }

void Restamp(char* slot) {
  const uint32_t len = PayloadLen(slot);
  if (len <= kMaxPayload) {
    EncodeFixed32(slot + 12, Crc32(slot + kHeaderSize, len));
  }
}

/// Offsets, within the payload, of the counts and name lengths of the data
/// a slot was written with.
struct Layout {
  size_t key_count = kKeyCountOffset;
  size_t cached_count = 0;
  size_t column_count = 0;
  std::vector<size_t> name_lens;
};

Layout LayoutOf(const SuperblockData& d) {
  Layout l;
  l.cached_count = l.key_count + 4 + 4 * d.key_columns.size();
  l.column_count = l.cached_count + 4 + 4 * d.cached_columns.size();
  size_t p = l.column_count + 4;
  for (const Column& col : d.columns) {
    l.name_lens.push_back(p + 5);  // after the type byte and u32 length
    p += 7 + col.name.size();
  }
  return l;
}

uint32_t MutatedCount(Rng* rng, uint32_t n) {
  switch (rng->Uniform(6)) {
    case 0: return n + 1 + static_cast<uint32_t>(rng->Uniform(2));
    case 1: return n == 0 ? 1 : n - 1;
    case 2: return 0;
    case 3: return 255 + static_cast<uint32_t>(rng->Uniform(3));
    case 4: return 0xffffffffu;
    default: return static_cast<uint32_t>(rng->NextU64());
  }
}

enum class Mutation {
  kHeaderBitFlip,
  kHeaderByteStore,
  kPayloadBitFlip,
  kPayloadByteStore,
  kPayloadLen,
  kTruncate,
  kKeyCount,
  kCachedCount,
  kColumnCount,
  kNameLen,
};
constexpr uint64_t kNumMutations = 10;

/// Applies 1-3 random mutations to the written slots `targets` of a
/// two-slot `image`; slot s holds data of `layouts[s]`. A payload edit at or
/// past offset `restamp_from` re-stamps the slot's CRC; any other leaves
/// the CRC as it was. A truncation comes last, so every edit lands inside
/// the image.
void MutateImage(std::string* image, const std::vector<size_t>& targets,
                 const Layout (&layouts)[2], size_t restamp_from, Rng* rng) {
  size_t cut = image->size();
  const int edits = 1 + static_cast<int>(rng->Uniform(3));
  for (int e = 0; e < edits; ++e) {
    const size_t s = targets[rng->Uniform(targets.size())];
    char* slot = image->data() + s * kSlotSize;
    const Layout& layout = layouts[s];
    // Bounded by the slot even after an earlier edit of payload_len.
    const size_t len = std::min<size_t>(PayloadLen(slot), kMaxPayload);
    auto edit_payload = [&](size_t off, size_t width, auto&& edit) {
      if (off + width > len) return;
      edit(slot + kHeaderSize + off);
      if (off >= restamp_from) Restamp(slot);
    };
    auto edit_count = [&](size_t off) {
      edit_payload(off, 4, [&](char* p) {
        EncodeFixed32(p, MutatedCount(rng, DecodeFixed32(p)));
      });
    };
    switch (static_cast<Mutation>(rng->Uniform(kNumMutations))) {
      case Mutation::kHeaderBitFlip:
        slot[rng->Uniform(kHeaderSize)] ^=
            static_cast<char>(1u << rng->Uniform(8));
        break;
      case Mutation::kHeaderByteStore:
        slot[rng->Uniform(kHeaderSize)] = static_cast<char>(rng->NextU64());
        break;
      case Mutation::kPayloadBitFlip:
        if (len == 0) break;
        edit_payload(rng->Uniform(len), 1, [&](char* p) {
          *p ^= static_cast<char>(1u << rng->Uniform(8));
        });
        break;
      case Mutation::kPayloadByteStore:
        if (len == 0) break;
        edit_payload(rng->Uniform(len), 1, [&](char* p) {
          *p = static_cast<char>(rng->NextU64());
        });
        break;
      case Mutation::kPayloadLen: {
        uint32_t n;
        switch (rng->Uniform(4)) {
          case 0: n = static_cast<uint32_t>(len + 1 + rng->Uniform(4)); break;
          case 1: n = static_cast<uint32_t>(rng->Uniform(len + 1)); break;
          case 2: n = static_cast<uint32_t>(kMaxPayload + rng->Uniform(2));
                  break;
          default: n = static_cast<uint32_t>(rng->NextU64()); break;
        }
        EncodeFixed32(slot + 8, n);
        if (restamp_from == 0) Restamp(slot);
        break;
      }
      case Mutation::kTruncate:
        cut = std::min<size_t>(cut, rng->Uniform(image->size()));
        break;
      case Mutation::kKeyCount:
        edit_count(layout.key_count);
        break;
      case Mutation::kCachedCount:
        edit_count(layout.cached_count);
        break;
      case Mutation::kColumnCount:
        edit_count(layout.column_count);
        break;
      case Mutation::kNameLen:
        if (layout.name_lens.empty()) break;
        edit_payload(layout.name_lens[rng->Uniform(layout.name_lens.size())],
                     2, [&](char* p) {
                       const uint16_t n = DecodeFixed16(p);
                       uint16_t v;
                       switch (rng->Uniform(4)) {
                         case 0: v = static_cast<uint16_t>(n + 1); break;
                         case 1: v = static_cast<uint16_t>(n - 1); break;
                         case 2: v = 0xffff; break;
                         default: v = static_cast<uint16_t>(rng->NextU64());
                       }
                       EncodeFixed16(p, v);
                     });
        break;
    }
  }
  image->resize(cut);
}

/// The first `n` bytes of the slot Superblock::Write makes of `d` at `path`.
std::string Encoded(const SuperblockData& d, const std::string& path,
                    size_t n) {
  std::remove(path.c_str());
  EXPECT_OK(Superblock::Write(path, d));
  const std::string file = ReadFile(path);
  const size_t s = d.version % 2;
  return file.size() >= (s + 1) * kSlotSize ? file.substr(s * kSlotSize, n)
                                            : std::string();
}

TEST(SuperblockFuzzTest, ReadReturnsErrorOrOneSlotAsWritten) {
  const std::string base = ::testing::TempDir() + "nblb_sb_fuzz_" +
                           std::to_string(::getpid());
  const std::string path = base + ".sb";
  const std::string reencoded = base + ".reencode.sb";
  constexpr int kCorpusPerSeed = 50;
  constexpr int kMutationsPerInput = 20;
  int errors = 0, intact_reads = 0, mutated_reads = 0;
  for (uint64_t seed : {2101, 2102, 2103, 2104}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int c = 0; c < kCorpusPerSeed; ++c) {
      // One or both slots, written by the real writer; versions v and v+1
      // land in different slots.
      const uint64_t v = 1 + rng.Uniform(1000);
      std::optional<SuperblockData> written[2];
      std::remove(path.c_str());
      const int slots = 1 + static_cast<int>(rng.Uniform(2));
      for (int k = 0; k < slots; ++k) {
        SuperblockData d = RandomSuperblock(&rng, v + k);
        ASSERT_OK(Superblock::Write(path, d));
        written[d.version % 2] = std::move(d);
      }
      // A lone slot 0 leaves a one-slot file; Read sees the rest as zeros.
      std::string clean = ReadFile(path);
      ASSERT_LE(clean.size(), 2 * kSlotSize);
      clean.resize(2 * kSlotSize, '\0');
      {
        ASSERT_OK_AND_ASSIGN(SuperblockData got, Superblock::Read(path));
        EXPECT_TRUE(SameData(got, *written[(v + slots - 1) % 2]));
      }
      std::vector<size_t> targets;
      Layout layouts[2];
      for (size_t s = 0; s < 2; ++s) {
        if (!written[s]) continue;
        targets.push_back(s);
        layouts[s] = LayoutOf(*written[s]);
      }

      for (int m = 0; m < kMutationsPerInput; ++m) {
        SCOPED_TRACE("input " + std::to_string(c) + " mutation " +
                     std::to_string(m));
        std::string image = clean;
        MutateImage(&image, targets, layouts, /*restamp_from=*/0, &rng);
        WriteFile(path, image);
        // Read sees a short file's missing bytes as zeros.
        std::string seen = image;
        seen.resize(2 * kSlotSize, '\0');

        bool intact[2] = {false, false};
        for (size_t s = 0; s < 2; ++s) {
          if (!written[s]) continue;
          const size_t n =
              kHeaderSize + PayloadLen(clean.data() + s * kSlotSize);
          intact[s] = std::memcmp(seen.data() + s * kSlotSize,
                                  clean.data() + s * kSlotSize, n) == 0;
        }

        Result<SuperblockData> got = Superblock::Read(path);
        if (!got.ok()) {
          ++errors;
          EXPECT_TRUE(got.status().IsCorruption() ||
                      got.status().IsNotSupported())
              << got.status().ToString();
          EXPECT_FALSE(intact[0] || intact[1])
              << "an intact slot was refused: " << got.status().ToString();
          continue;
        }
        const SuperblockData& r = *got;
        if (intact[0] && intact[1]) {
          const size_t newer =
              written[0]->version >= written[1]->version ? 0 : 1;
          EXPECT_TRUE(SameData(r, *written[newer]));
          ++intact_reads;
          continue;
        }
        bool matched = false;
        for (size_t s = 0; s < 2; ++s) {
          if (intact[s] && SameData(r, *written[s])) matched = true;
        }
        if (matched) {
          ++intact_reads;
          continue;
        }
        // Not an intact slot's data: it must be what a mutated slot's bytes
        // say, byte for byte, and no older than any intact slot.
        const std::string re =
            Encoded(r, reencoded, kHeaderSize + kMaxPayload);
        ASSERT_GE(re.size(), kHeaderSize);
        const size_t n = kHeaderSize + PayloadLen(re.data());
        for (size_t s = 0; s < 2; ++s) {
          if (!intact[s] &&
              std::memcmp(seen.data() + s * kSlotSize, re.data(), n) == 0) {
            matched = true;
          }
          if (intact[s]) {
            EXPECT_GE(r.version, written[s]->version);
          }
        }
        EXPECT_TRUE(matched) << "Read returned data no slot holds";
        ++mutated_reads;
      }
    }
  }
  // The mutations reach every outcome.
  EXPECT_GT(errors, 0);
  EXPECT_GT(intact_reads, 0);
  EXPECT_GT(mutated_reads, 0);
  std::remove(path.c_str());
  std::remove(reencoded.c_str());
}

Row KeyedRow(Rng* rng, int64_t id) {
  return {Value::Int64(id), Value::Varchar(rng->NextString(rng->Uniform(40))),
          Value::Int32(static_cast<int32_t>(rng->NextU64())),
          Value::Bool(rng->Bernoulli(0.5))};
}

TEST(SuperblockFuzzTest, ShardOpenOverMutatedSidecarFailsOrServesKeys) {
  // A re-stamped edit of a field Shard::Open cannot check (the version,
  // checkpoint LSN, page ids or clean flag) is a well-formed superblock
  // naming other data, which no reader can tell from the real one. So this
  // test re-stamps only edits of the fields it checks against its options
  // and leaves the CRC stale after any other payload edit.
  ShardOptions opts;
  opts.path = ::testing::TempDir() + "nblb_sb_fuzz_open_" +
              std::to_string(::getpid()) + ".db";
  opts.page_size = 4096;
  opts.buffer_pool_frames = 64;
  opts.wal_enabled = true;
  opts.schema = Schema({{"id", TypeId::kInt64, 0},
                        {"text", TypeId::kVarchar, 40},
                        {"n", TypeId::kInt32, 0},
                        {"flag", TypeId::kBool, 0}});
  opts.table_options.key_columns = {0};
  const std::string sb_path = Superblock::PathFor(opts.path);
  const std::string wal_path = Wal::PathFor(opts.path);

  // Two images: a clean close (both slots, the newer clean) and a crash
  // after a checkpoint with committed writes behind it (both slots dirty).
  struct Image {
    std::string data, sb, wal;
    std::vector<Row> rows;  // every acked row, indexed by key
  };
  Rng rng(2201);
  constexpr int64_t kKeys = 200;
  Image images[2];
  for (int crash = 0; crash < 2; ++crash) {
    Image& img = images[crash];
    {
      ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(0, opts));
      for (int64_t k = 0; k < kKeys; ++k) {
        img.rows.push_back(KeyedRow(&rng, k));
        ASSERT_OK(shard->Insert(img.rows.back()));
        if (k == kKeys / 2) {
          ASSERT_OK(shard->CommitWal());
          ASSERT_OK(shard->Checkpoint());
        }
      }
      ASSERT_OK(shard->CommitWal());
      if (crash) shard->SimulateCrashForTest();
    }
    img.data = ReadFile(opts.path);
    img.sb = ReadFile(sb_path);
    img.wal = ReadFile(wal_path);
    ASSERT_EQ(img.sb.size(), 2 * kSlotSize);
    ASSERT_OK_AND_ASSIGN(SuperblockData sb, Superblock::Read(sb_path));
    EXPECT_EQ(sb.clean_shutdown, crash == 0);
  }

  // Both images hold the same schema and column lists in both slots.
  WriteFile(sb_path, images[0].sb);
  ASSERT_OK_AND_ASSIGN(SuperblockData written, Superblock::Read(sb_path));
  const Layout layouts[2] = {LayoutOf(written), LayoutOf(written)};

  ShardOptions reopen = opts;
  reopen.truncate = false;
  constexpr int kIterations = 200;
  int opened = 0, refused = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const Image& img = images[rng.Uniform(2)];
    std::string sb = img.sb;
    MutateImage(&sb, {0, 1}, layouts, kCheckedFieldsOffset, &rng);
    WriteFile(opts.path, img.data);
    WriteFile(sb_path, sb);
    WriteFile(wal_path, img.wal);
    auto shard_or = Shard::Open(0, reopen);
    if (!shard_or.ok()) {
      ++refused;
      continue;
    }
    ++opened;
    auto shard = std::move(shard_or).ValueOrDie();
    for (int64_t k = 0; k < kKeys; ++k) {
      auto got = shard->Get(static_cast<uint64_t>(k));
      ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
      ASSERT_EQ(*got, img.rows[k]) << "key " << k;
    }
    shard->SimulateCrashForTest();
  }
  EXPECT_GT(opened, 0);
  EXPECT_GT(refused, 0);
  std::remove(opts.path.c_str());
  std::remove(sb_path.c_str());
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace nblb
