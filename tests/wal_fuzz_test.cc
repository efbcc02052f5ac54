// Seeded mutational fuzz tests for the parsers a WAL replay runs over bytes
// from disk: the row decoder (RowCodec::Decode, fed trimmed and fixed row
// images), the image transcoder the network encoder runs over the same
// stored bytes (AppendResponseFrame of a RowForm::kImage result), and the
// WAL tail scanner plus replay (Shard::Open over a committed log). Inputs
// are mutated by bit flips, byte stores, truncation, length-field edits,
// insertions/deletions and splices; a log also gets garbage in the gaps
// its commits skipped, frames copied to the next page boundary, and the
// garbage page plus stale page a torn skip-commit can leave. Seeds and
// iteration counts are fixed, so a failure reproduces.
//
// Oracle: nothing crashes (the asan-ubsan CI job runs this binary under
// AddressSanitizer and UBSan; mutated images live in exactly-sized heap
// buffers so a read past the end is reported), and every outcome is one of
//   - a row that re-encodes to exactly the payload it was decoded from (a
//     fixed image's VARCHAR padding, which the decoder never reads, aside),
//     and whose image transcodes to exactly the wire row the row encodes to,
//   - Corruption (the same from the decoder and the transcoder),
//   - a truncated tail: replay applies only records that were written, and
//     the recovered shard holds exactly the checkpointed rows plus them.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/row_codec.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "net/wire.h"
#include "shard/shard.h"
#include "storage/superblock.h"
#include "storage/wal.h"
#include "test_util.h"

namespace nblb {
namespace {

// The revision table's shape (VARCHAR(255) text next to a CHAR(14)
// timestamp) plus one column of every other type and a tiny VARCHAR, so
// every decode branch sees mutated bytes.
Schema FuzzSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"comment", TypeId::kVarchar, 255},
                 {"timestamp", TypeId::kChar, 14},
                 {"minor", TypeId::kBool, 0},
                 {"user_text", TypeId::kVarchar, 255},
                 {"tag", TypeId::kVarchar, 3},
                 {"deleted", TypeId::kInt8, 0},
                 {"ns", TypeId::kInt16, 0},
                 {"len", TypeId::kInt32, 0},
                 {"score", TypeId::kFloat64, 0},
                 {"touched", TypeId::kTimestamp, 0}});
}

// VARCHAR lengths cluster at the edges (empty, one byte, full) where an
// off-by-one in the decoder would show.
std::string RandomVarchar(Rng* rng, size_t capacity) {
  size_t len = 0;
  switch (rng->Uniform(4)) {
    case 0: len = 0; break;
    case 1: len = 1; break;
    case 2: len = capacity; break;
    default: len = rng->Uniform(capacity + 1); break;
  }
  return rng->NextString(len);
}

Row RandomRow(Rng* rng, int64_t id) {
  return {Value::Int64(id),
          Value::Varchar(RandomVarchar(rng, 255)),
          Value::Char(rng->NextString(rng->Uniform(15))),
          Value::Bool(rng->Bernoulli(0.5)),
          Value::Varchar(RandomVarchar(rng, 255)),
          Value::Varchar(RandomVarchar(rng, 3)),
          Value::Int8(static_cast<int8_t>(rng->NextU64())),
          Value::Int16(static_cast<int16_t>(rng->NextU64())),
          Value::Int32(static_cast<int32_t>(rng->NextU64())),
          Value::Float64(rng->NextDouble() * 1e6 - 5e5),
          Value::Timestamp(static_cast<uint32_t>(rng->NextU64()))};
}

/// A row image plus the offsets of its VARCHAR length fields, so mutations
/// can target them.
struct Image {
  std::string bytes;
  std::vector<size_t> length_fields;
};

Image MakeImage(const RowCodec& codec, const Row& row, bool trimmed) {
  Image img;
  if (trimmed) {
    EXPECT_OK(codec.EncodeTrimmed(row, &img.bytes));
  } else {
    auto fixed = codec.Encode(row);
    EXPECT_OK(fixed.status());
    img.bytes = fixed.ValueOr("");
  }
  const Schema& s = *codec.schema();
  size_t pos = 0;
  for (size_t i = 0; i < s.num_columns(); ++i) {
    const Column& c = s.column(i);
    if (c.type == TypeId::kVarchar) {
      img.length_fields.push_back(pos);
      pos += trimmed ? 2 + row[i].AsString().size() : c.ByteSize();
    } else {
      pos += c.ByteSize();
    }
  }
  return img;
}

/// Applies 1-3 stacked mutations to `img.bytes`.
void Mutate(Image* img, const std::vector<Image>& corpus, Rng* rng) {
  static const uint8_t kInteresting[] = {0x00, 0x01, 0x02, 0x03, 0x20,
                                         0x7f, 0x80, 0xfe, 0xff};
  static const uint16_t kLengths[] = {0, 1, 2, 3, 4, 254, 255, 256, 0x7fff,
                                      0xffff};
  std::string& b = img->bytes;
  const int rounds = 1 + static_cast<int>(rng->Uniform(3));
  for (int r = 0; r < rounds; ++r) {
    switch (rng->Uniform(6)) {
      case 0:  // bit flip
        if (!b.empty()) {
          b[rng->Uniform(b.size())] ^= static_cast<char>(1u << rng->Uniform(8));
        }
        break;
      case 1:  // byte store
        if (!b.empty()) {
          b[rng->Uniform(b.size())] = static_cast<char>(
              rng->Bernoulli(0.5) ? kInteresting[rng->Uniform(9)]
                                  : rng->NextU64());
        }
        break;
      case 2:  // truncation
        b.resize(rng->Uniform(b.size() + 1));
        break;
      case 3: {  // length-field edit
        const size_t at = img->length_fields[rng->Uniform(
            img->length_fields.size())];
        if (at + 2 > b.size()) break;
        uint16_t len = DecodeFixed16(b.data() + at);
        switch (rng->Uniform(3)) {
          case 0: len = kLengths[rng->Uniform(10)]; break;
          case 1: len = static_cast<uint16_t>(len + 1); break;
          default: len = static_cast<uint16_t>(len - 1); break;
        }
        EncodeFixed16(b.data() + at, len);
        break;
      }
      case 4: {  // splice: a prefix of this image, a suffix of another
        const std::string& other = corpus[rng->Uniform(corpus.size())].bytes;
        const size_t cut = rng->Uniform(b.size() + 1);
        const size_t from = rng->Uniform(other.size() + 1);
        b = b.substr(0, cut) + other.substr(from);
        break;
      }
      default: {  // insert or delete a few bytes
        const size_t at = rng->Uniform(b.size() + 1);
        const size_t n = 1 + rng->Uniform(4);
        if (rng->Bernoulli(0.5)) {
          b.insert(at, rng->NextString(n));
        } else {
          b.erase(at, n);
        }
        break;
      }
    }
  }
}

// ---- (a) the row decoder ----------------------------------------------------

/// 64 random rows, each as a trimmed and a fixed image.
std::vector<Image> ImageCorpus(const RowCodec& codec, Rng* rng) {
  std::vector<Image> corpus;
  for (int i = 0; i < 64; ++i) {
    const Row row = RandomRow(rng, static_cast<int64_t>(i));
    corpus.push_back(MakeImage(codec, row, /*trimmed=*/true));
    corpus.push_back(MakeImage(codec, row, /*trimmed=*/false));
  }
  return corpus;
}

TEST(RowDecoderFuzzTest, MutatedImagesDecodeExactlyOrFailAsCorruption) {
  const Schema schema = FuzzSchema();
  const RowCodec codec(&schema);
  Rng rng(20110109);
  const std::vector<Image> corpus = ImageCorpus(codec, &rng);
  constexpr int kIterations = 100000;
  int accepted = 0, rejected = 0;
  std::string again;
  for (int iter = 0; iter < kIterations; ++iter) {
    Image img = corpus[rng.Uniform(corpus.size())];
    Mutate(&img, corpus, &rng);
    // An exactly-sized heap copy: ASan reports any read past its end.
    const size_t n = img.bytes.size();
    std::unique_ptr<char[]> buf(new char[n]);
    std::memcpy(buf.get(), img.bytes.data(), n);
    auto row = codec.Decode(Slice(buf.get(), n));
    if (!row.ok()) {
      ASSERT_TRUE(row.status().IsCorruption())
          << "iter " << iter << ": " << row.status().ToString();
      ++rejected;
      continue;
    }
    ++accepted;
    std::string want = img.bytes;
    if (n == schema.row_size()) {
      ASSERT_OK_AND_ASSIGN(again, codec.Encode(*row));
      // The decoder never reads a fixed image's VARCHAR padding.
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        const Column& c = schema.column(i);
        if (c.type != TypeId::kVarchar) continue;
        const size_t used = 2 + (*row)[i].AsString().size();
        std::memset(&want[schema.offset(i) + used], 0, c.ByteSize() - used);
      }
    } else {
      ASSERT_OK(codec.EncodeTrimmed(*row, &again));
    }
    ASSERT_EQ(again, want) << "iter " << iter << " (" << n << " bytes)";
  }
  // Both outcomes must be common, or the mutations are not reaching the
  // checks (or the decoder rejects everything).
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 4);
}

// The same mutated images, as the network server meets them: a get's stored
// image in a RowForm::kImage result, transcoded by AppendResponseFrame. It
// must write exactly the frame of the Row DecodeInto makes of the image, or
// fail with DecodeInto's Corruption and leave the output untouched.
TEST(RowDecoderFuzzTest, MutatedImagesTranscodeAsTheirDecodedRowsEncode) {
  const Schema schema = FuzzSchema();
  const RowCodec codec(&schema);
  Rng rng(20110109);
  const std::vector<Image> corpus = ImageCorpus(codec, &rng);
  constexpr int kIterations = 100000;
  int accepted = 0, rejected = 0;
  Row row;
  std::string via_image, via_row;
  for (int iter = 0; iter < kIterations; ++iter) {
    Image img = corpus[rng.Uniform(corpus.size())];
    Mutate(&img, corpus, &rng);
    const size_t n = img.bytes.size();
    const Status decoded = codec.DecodeInto(Slice(img.bytes), &row);

    BatchResult image_form;
    image_form.images = {img.bytes};
    image_form.image_codec = &codec;
    image_form.results.resize(1);
    image_form.results[0].image = {0, static_cast<uint32_t>(n), true};
    via_image.clear();
    const Status transcoded =
        net::AppendResponseFrame(iter, image_form, &via_image);
    if (!decoded.ok()) {
      ASSERT_FALSE(transcoded.ok()) << "iter " << iter;
      EXPECT_EQ(transcoded.code(), decoded.code()) << "iter " << iter;
      EXPECT_EQ(transcoded.message(), decoded.message()) << "iter " << iter;
      EXPECT_TRUE(via_image.empty()) << "iter " << iter;
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_OK(transcoded);
    BatchResult row_form;
    row_form.results.resize(1);
    row_form.results[0].row = row;
    via_row.clear();
    ASSERT_OK(net::AppendResponseFrame(iter, row_form, &via_row));
    ASSERT_EQ(via_image, via_row) << "iter " << iter << " (" << n << " bytes)";
  }
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 4);
}

// ---- (b) the WAL tail through Shard::Open -----------------------------------

constexpr size_t kPageSize = 4096;
/// Frame header (u32 body_len, u32 crc) plus the body's lsn/op/key/
/// payload_len: the bytes a record takes besides its payload.
constexpr size_t kFrameOverhead = 8 + 21;

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

struct LoggedRecord {
  Wal::Op op;
  uint64_t key;
  std::string payload;
};

/// Every record the scanner delivers past `from_lsn`, in order. A log that
/// cannot be opened (its size is not a page multiple) returns that status.
Result<std::vector<std::pair<uint64_t, LoggedRecord>>> ScanLog(
    const std::string& wal_path, uint64_t from_lsn) {
  WalOptions wo;
  wo.page_size = kPageSize;
  NBLB_ASSIGN_OR_RETURN(auto wal, Wal::Open(wal_path, wo));
  std::vector<std::pair<uint64_t, LoggedRecord>> out;
  NBLB_RETURN_NOT_OK(wal->Replay(from_lsn, [&](const Wal::Record& rec) {
    out.push_back({rec.lsn,
                   {rec.op, rec.key,
                    std::string(rec.payload.data(), rec.payload.size())}});
    return Status::OK();
  }));
  return out;
}

/// Where the frames of a written log lie: each commit's frames start at
/// its durable tail if they all fit in the tail page's free space, else at
/// the next page boundary (the skipped bytes are a gap).
struct LogLayout {
  std::vector<size_t> frames;                   ///< frame start offsets
  std::vector<std::pair<size_t, size_t>> gaps;  ///< [begin, end) skipped
};

/// Lays out `commits` (each a list of payload sizes) by the layout rule.
LogLayout LayOut(const std::vector<std::vector<size_t>>& commits) {
  LogLayout out;
  size_t tail = 0;
  for (const std::vector<size_t>& commit : commits) {
    size_t bytes = 0;
    for (size_t payload : commit) bytes += kFrameOverhead + payload;
    const size_t free = kPageSize - tail % kPageSize;
    if (free < kPageSize && bytes > free) {
      out.gaps.push_back({tail, tail + free});
      tail += free;
    }
    for (size_t payload : commit) {
      out.frames.push_back(tail);
      tail += kFrameOverhead + payload;
    }
  }
  return out;
}

/// One CRC-framed record, as the Wal writes it.
std::string Frame(uint64_t lsn, Wal::Op op, uint64_t key,
                  const std::string& payload) {
  std::string body(kFrameOverhead - 8 + payload.size(), '\0');
  EncodeFixed64(&body[0], lsn);
  body[8] = static_cast<char>(op);
  EncodeFixed64(&body[9], key);
  EncodeFixed32(&body[17], static_cast<uint32_t>(payload.size()));
  std::memcpy(&body[21], payload.data(), payload.size());
  std::string frame(8, '\0');
  EncodeFixed32(&frame[0], static_cast<uint32_t>(body.size()));
  EncodeFixed32(&frame[4], Crc32(body.data(), body.size()));
  return frame + body;
}

/// Raw byte mutations of a log file. Frame headers ([u32 body_len][u32 crc],
/// then lsn/op/key/payload_len) at `layout.frames` get targeted length
/// edits; the layout's gaps and page boundaries get the damage a torn or
/// misdirected write leaves there. `unwritten_lsn` is an LSN no record
/// carries.
void MutateLog(std::string* log, const LogLayout& layout,
               uint64_t unwritten_lsn, Rng* rng) {
  static const uint32_t kLengths[] = {0, 1, 20, 21, 22, kPageSize, 1u << 20,
                                      (1u << 20) + 1, 0xffffffffu};
  const std::vector<size_t>& frames = layout.frames;
  std::string& b = *log;
  const int rounds = 1 + static_cast<int>(rng->Uniform(2));
  for (int r = 0; r < rounds && !b.empty(); ++r) {
    switch (rng->Uniform(9)) {
      case 0:  // bit flip
        b[rng->Uniform(b.size())] ^= static_cast<char>(1u << rng->Uniform(8));
        break;
      case 1: {  // body_len or payload_len edit of one frame
        const size_t f = frames[rng->Uniform(frames.size())];
        const size_t at = rng->Bernoulli(0.5) ? f : f + kFrameOverhead - 4;
        if (at + 4 > b.size()) break;
        uint32_t len = DecodeFixed32(b.data() + at);
        len = rng->Bernoulli(0.5) ? kLengths[rng->Uniform(9)]
                                  : len + static_cast<uint32_t>(
                                              rng->UniformRange(-2, 2));
        EncodeFixed32(b.data() + at, len);
        break;
      }
      case 2:  // truncation, to a page multiple or anywhere
        b.resize(rng->Bernoulli(0.5)
                     ? rng->Uniform(b.size() / kPageSize + 1) * kPageSize
                     : rng->Uniform(b.size() + 1));
        break;
      case 3: {  // zero a range (a write that never reached the disk)
        const size_t at = rng->Uniform(b.size());
        const size_t n = std::min(b.size() - at, 1 + rng->Uniform(600));
        std::memset(&b[at], 0, n);
        break;
      }
      case 4: {  // splice: copy one frame over another position
        const size_t from = frames[rng->Uniform(frames.size())];
        const size_t to = rng->Bernoulli(0.5)
                              ? frames[rng->Uniform(frames.size())]
                              : rng->Uniform(b.size());
        if (from >= b.size() || to >= b.size()) break;
        const size_t n =
            std::min({b.size() - from, b.size() - to, 8 + rng->Uniform(700)});
        std::memmove(&b[to], &b[from], n);
        break;
      }
      case 5: {  // garbage in a gap a commit skipped
        const auto& [begin, end] = layout.gaps[rng->Uniform(
            layout.gaps.size())];
        if (end > b.size()) break;
        const size_t at = begin + rng->Uniform(end - begin);
        const std::string junk = rng->NextString(end - at);
        b.replace(at, junk.size(), junk);
        break;
      }
      case 6: {  // a frame copied to the next page boundary
        const size_t from = frames[rng->Uniform(frames.size())];
        const size_t to = (from / kPageSize + 1) * kPageSize;
        if (to >= b.size() || from + kFrameOverhead > b.size()) break;
        const size_t n =
            std::min<size_t>(b.size() - to,
                             kFrameOverhead +
                                 DecodeFixed32(&b[from + kFrameOverhead - 4]));
        std::memmove(&b[to], &b[from], n);
        break;
      }
      case 7: {  // a torn skip-commit: garbage on its new page, then a
                 // stale page whose first frame carries an unwritten LSN
        b.resize((b.size() + kPageSize - 1) / kPageSize * kPageSize, '\0');
        b += rng->NextString(kPageSize);
        std::string stale = Frame(unwritten_lsn, Wal::Op::kDelete, 0, "");
        stale.resize(kPageSize, '\0');
        b += stale;
        break;
      }
      default:  // a garbage page past the tail
        b += rng->NextString(kPageSize);
        break;
    }
  }
}

TEST(WalReplayFuzzTest, MutatedLogsReplayWrittenRecordsOrFailAsCorruption) {
  const Schema schema = FuzzSchema();
  const RowCodec codec(&schema);
  ShardOptions opts;
  opts.path = ::testing::TempDir() + "nblb_wal_fuzz_" +
              std::to_string(::getpid()) + ".db";
  opts.page_size = kPageSize;
  opts.buffer_pool_frames = 256;
  opts.wal_enabled = true;
  opts.schema = schema;
  opts.table_options.key_columns = {0};
  const std::string sb_path = Superblock::PathFor(opts.path);
  const std::string wal_path = Wal::PathFor(opts.path);

  // Crash image: the data file and superblock as the checkpoint left them,
  // and a committed log of puts (trimmed images) and deletes after it.
  // `commit_last_lsn` holds the last LSN each commit made durable.
  Rng rng(1293840000);
  constexpr int64_t kBaseRows = 40;
  constexpr int64_t kKeySpace = kBaseRows + 16;  // keys the log touches
  std::map<int64_t, Row> base;
  std::string data_image, sb_image, wal_image;
  std::vector<uint64_t> commit_last_lsn;
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(0, opts));
    for (int64_t k = 0; k < kBaseRows; ++k) {
      base[k] = RandomRow(&rng, k);
      ASSERT_OK(shard->Insert(base[k]));
    }
    ASSERT_OK(shard->Checkpoint());
    data_image = ReadFile(opts.path);
    sb_image = ReadFile(sb_path);
    for (int group = 0; group < 6; ++group) {
      for (int op = 0; op < 6; ++op) {
        const int64_t k = static_cast<int64_t>(rng.Uniform(kKeySpace));
        if (rng.Uniform(6) == 0) {
          Status st = shard->Delete(static_cast<uint64_t>(k));
          ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
        } else if (shard->Get(static_cast<uint64_t>(k)).ok()) {
          ASSERT_OK(
              shard->Update(static_cast<uint64_t>(k), RandomRow(&rng, k)));
        } else {
          ASSERT_OK(shard->Insert(RandomRow(&rng, k)));
        }
      }
      ASSERT_OK(shard->CommitWal());
      commit_last_lsn.push_back(shard->wal()->durable_lsn());
    }
    wal_image = ReadFile(wal_path);
    shard->SimulateCrashForTest();
  }
  ASSERT_OK_AND_ASSIGN(SuperblockData sb, Superblock::Read(sb_path));

  // What was written: LSN -> record, and where each frame starts.
  std::map<uint64_t, LoggedRecord> written;
  LogLayout layout;
  {
    WriteFile(wal_path, wal_image);
    ASSERT_OK_AND_ASSIGN(auto tail, ScanLog(wal_path, 0));
    // Each commit's payload sizes; a commit with nothing to log wrote
    // nothing.
    std::vector<std::vector<size_t>> commits;
    size_t next = 0;
    for (uint64_t last : commit_last_lsn) {
      std::vector<size_t> commit;
      while (next < tail.size() && tail[next].first <= last) {
        commit.push_back(tail[next].second.payload.size());
        ++next;
      }
      if (!commit.empty()) commits.push_back(std::move(commit));
    }
    ASSERT_EQ(next, tail.size());
    layout = LayOut(commits);
    for (size_t i = 0; i < tail.size(); ++i) {
      const size_t at = layout.frames[i];
      ASSERT_LE(at + kFrameOverhead, wal_image.size());
      ASSERT_EQ(DecodeFixed64(&wal_image[at + 8]), tail[i].first)
          << "the layout rule places LSN " << tail[i].first << " at " << at;
      written.emplace(tail[i].first, std::move(tail[i].second));
    }
    ASSERT_GE(written.size(), 30u);
    ASSERT_GT(wal_image.size(), kPageSize) << "the log should span pages";
    ASSERT_FALSE(layout.gaps.empty()) << "some commit should skip a gap";
  }
  std::vector<Image> corpus;
  for (const auto& [k, row] : base) {
    corpus.push_back(MakeImage(codec, row, rng.Bernoulli(0.5)));
  }

  ShardOptions reopen = opts;
  reopen.truncate = false;
  constexpr int kIterations = 400;
  int opened = 0, corrupt = 0, truncated = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    WriteFile(opts.path, data_image);
    WriteFile(sb_path, sb_image);
    WriteFile(wal_path, wal_image);
    std::map<uint64_t, LoggedRecord> logged = written;

    // Half the time, append CRC-valid records through the Wal itself: puts
    // whose images are mutated (so replay must run the row decoder on
    // them) and deletes.
    if (rng.Bernoulli(0.5)) {
      WalOptions wo;
      wo.page_size = kPageSize;
      ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path, wo));
      const int n = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < n; ++i) {
        const uint64_t key = rng.Uniform(kKeySpace);
        LoggedRecord rec{Wal::Op::kDelete, key, ""};
        if (rng.Uniform(4) != 0) {
          Image img = MakeImage(
              codec, RandomRow(&rng, static_cast<int64_t>(key)),
              rng.Bernoulli(0.5));
          if (rng.Bernoulli(0.7)) Mutate(&img, corpus, &rng);
          rec = {Wal::Op::kPut, key, img.bytes};
        }
        ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                             wal->Append(rec.op, rec.key, Slice(rec.payload)));
        logged.emplace(lsn, std::move(rec));
      }
      ASSERT_OK(wal->Commit());
    }
    // Mostly, damage the log's bytes as a torn or misdirected write would.
    if (rng.Uniform(10) < 7) {
      std::string log = ReadFile(wal_path);
      MutateLog(&log, layout, logged.rbegin()->first + 1, &rng);
      WriteFile(wal_path, log);
    }

    // Expected outcome: the records the scanner delivers must each be one
    // that was written, and replaying them onto the checkpointed rows
    // gives the recovered state, unless a put does not decode.
    bool want_corruption = false;
    std::map<int64_t, Row> model = base;
    auto delivered = ScanLog(wal_path, sb.checkpoint_lsn);
    if (!delivered.ok()) {
      ASSERT_TRUE(delivered.status().IsCorruption())
          << delivered.status().ToString();
      want_corruption = true;
    } else {
      uint64_t prev_lsn = 0;
      for (const auto& [lsn, rec] : *delivered) {
        ASSERT_GT(lsn, prev_lsn);
        prev_lsn = lsn;
        auto it = logged.find(lsn);
        ASSERT_NE(it, logged.end()) << "replayed LSN " << lsn
                                    << " was never written";
        ASSERT_EQ(rec.op, it->second.op);
        ASSERT_EQ(rec.key, it->second.key);
        ASSERT_EQ(rec.payload, it->second.payload);
        if (rec.op == Wal::Op::kDelete) {
          model.erase(static_cast<int64_t>(rec.key));
          continue;
        }
        auto row = codec.Decode(Slice(rec.payload));
        if (!row.ok()) {
          ASSERT_TRUE(row.status().IsCorruption());
          want_corruption = true;
          break;
        }
        model[(*row)[0].AsInt()] = std::move(*row);
      }
      if (!want_corruption && delivered->size() < logged.size()) ++truncated;
    }

    auto shard = Shard::Open(0, reopen);
    if (want_corruption) {
      ASSERT_TRUE(shard.status().IsCorruption()) << shard.status().ToString();
      ++corrupt;
      continue;
    }
    ASSERT_OK(shard.status());
    ++opened;
    Shard* s = shard->get();
    EXPECT_TRUE(s->recovered());
    EXPECT_EQ(s->replayed_records(), delivered->size());
    EXPECT_EQ(s->rows(), model.size());
    std::set<int64_t> keys;
    for (int64_t k = 0; k < kKeySpace; ++k) keys.insert(k);
    for (const auto& [k, row] : model) keys.insert(k);
    for (int64_t k : keys) {
      auto got = s->Get(static_cast<uint64_t>(k));
      auto want = model.find(k);
      if (want == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << "key " << k;
        continue;
      }
      ASSERT_OK(got.status());
      // Compared as fixed images: a decoded FLOAT64 may be a NaN.
      ASSERT_OK_AND_ASSIGN(std::string got_image, codec.Encode(*got));
      ASSERT_OK_AND_ASSIGN(std::string want_image, codec.Encode(want->second));
      EXPECT_EQ(got_image, want_image) << "key " << k;
    }
    s->SimulateCrashForTest();
  }
  // Every outcome class must actually occur.
  EXPECT_GT(opened, kIterations / 4);
  EXPECT_GT(corrupt, kIterations / 20);
  EXPECT_GT(truncated, kIterations / 10);
  for (const std::string& f : {opts.path, sb_path, wal_path}) {
    std::remove(f.c_str());
  }
}

}  // namespace
}  // namespace nblb
