// Seeded mutational fuzz tests for the wire decoders, the parsers a server
// and a client run over untrusted bytes: FrameDecoder (fed whole streams of
// frames in random chunk sizes) and both payload decoders. Inputs are valid
// request, response and busy frames covering every request kind and every
// TypeId, mutated by bit flips, byte stores, truncation, count and length
// edits, scalar and type-byte edits, insertions/deletions and splices.
// Seeds and iteration counts are fixed, so a failure reproduces.
//
// Oracle: nothing crashes (the asan-ubsan CI job runs this binary under
// AddressSanitizer and UBSan; payloads live in exactly-sized heap buffers
// so a read past the end is reported), and every outcome is either an
// error or a value that re-encodes to exactly the bytes it was decoded
// from. A decoder that reported an error yields nothing more.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "net/wire.h"
#include "test_util.h"

namespace nblb::net {
namespace {

// ---- Valid inputs -----------------------------------------------------------

/// A random integer of T's range, at an edge half of the time.
template <typename T>
T RandomInt(Rng* rng) {
  const T edges[] = {std::numeric_limits<T>::min(),
                     std::numeric_limits<T>::max(), T{0}, T{1},
                     static_cast<T>(std::numeric_limits<T>::max() - 1)};
  if (rng->Bernoulli(0.5)) return edges[rng->Uniform(5)];
  return static_cast<T>(rng->NextU64());
}

Value RandomValue(Rng* rng) {
  switch (static_cast<TypeId>(rng->Uniform(9))) {
    case TypeId::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case TypeId::kInt8:
      return Value::Int8(RandomInt<int8_t>(rng));
    case TypeId::kInt16:
      return Value::Int16(RandomInt<int16_t>(rng));
    case TypeId::kInt32:
      return Value::Int32(RandomInt<int32_t>(rng));
    case TypeId::kInt64:
      return Value::Int64(RandomInt<int64_t>(rng));
    case TypeId::kFloat64: {
      // Any bit pattern, NaNs and infinities included.
      const uint64_t bits = rng->NextU64();
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Float64(d);
    }
    case TypeId::kTimestamp:
      return Value::Timestamp(RandomInt<uint32_t>(rng));
    case TypeId::kChar:
      return Value::Char(rng->NextString(rng->Uniform(20)));
    case TypeId::kVarchar:
      return Value::Varchar(rng->NextString(rng->Uniform(40)));
  }
  return Value();
}

Row RandomRow(Rng* rng, size_t min_cols) {
  Row row;
  const size_t n = min_cols + rng->Uniform(10);
  for (size_t i = 0; i < n; ++i) row.push_back(RandomValue(rng));
  return row;
}

RequestBatch RandomRequests(Rng* rng) {
  RequestBatch batch;
  const size_t n = 1 + rng->Uniform(6);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = rng->NextU64();
    switch (static_cast<RequestKind>(rng->Uniform(5))) {
      case RequestKind::kGet:
        batch.push_back(Request::Get(id));
        break;
      case RequestKind::kGetProjected: {
        std::vector<size_t> cols;
        const size_t k = rng->Uniform(5);
        for (size_t c = 0; c < k; ++c) cols.push_back(rng->Uniform(65536));
        batch.push_back(Request::GetProjected(id, cols));
        break;
      }
      case RequestKind::kInsert:
        batch.push_back(Request::Insert(id, RandomRow(rng, 0)));
        break;
      case RequestKind::kUpdate:
        batch.push_back(Request::Update(id, RandomRow(rng, 0)));
        break;
      case RequestKind::kDelete:
        batch.push_back(Request::Delete(id));
        break;
    }
  }
  return batch;
}

BatchResult RandomResults(Rng* rng) {
  BatchResult result;
  const size_t n = 1 + rng->Uniform(6);
  for (size_t i = 0; i < n; ++i) {
    RequestResult r;
    constexpr auto kCodes =
        static_cast<uint64_t>(StatusCode::kResourceExhausted) + 1;
    const auto code = static_cast<StatusCode>(rng->Uniform(kCodes));
    r.status = Status(code, rng->NextString(rng->Uniform(30)));
    r.shard = static_cast<uint32_t>(rng->NextU64());
    if (rng->Uniform(3) != 0) r.row = RandomRow(rng, 1);
    result.results.push_back(std::move(r));
  }
  return result;
}

// ---- Structure-aware mutation -----------------------------------------------

enum class FieldKind : uint8_t {
  kCount,   ///< a u16/u32 count or length
  kScalar,  ///< an 8-byte value image or request id
  kTag,     ///< a TypeId, request-kind, status-code or frame-type byte
  kFlag,    ///< the has_row byte
};

struct Field {
  size_t at;
  size_t width;
  FieldKind kind;
};

/// Bytes plus the positions of their structured fields.
struct Sample {
  std::string bytes;
  std::vector<Field> fields;
};

void WalkRow(const std::string& b, size_t* p, std::vector<Field>* f) {
  const uint16_t ncols = DecodeFixed16(&b[*p]);
  f->push_back({*p, 2, FieldKind::kCount});
  *p += 2;
  for (uint16_t i = 0; i < ncols; ++i) {
    const auto type = static_cast<TypeId>(b[*p]);
    f->push_back({*p, 1, FieldKind::kTag});
    *p += 1;
    if (type == TypeId::kChar || type == TypeId::kVarchar) {
      f->push_back({*p, 4, FieldKind::kCount});
      *p += 4 + DecodeFixed32(&b[*p]);
    } else {
      f->push_back({*p, 8, FieldKind::kScalar});
      *p += 8;
    }
  }
}

/// Records the fields of the valid frame at b[base..].
void WalkFrame(const std::string& b, size_t base, std::vector<Field>* f) {
  f->push_back({base, 4, FieldKind::kCount});
  f->push_back({base + 4, 1, FieldKind::kTag});
  f->push_back({base + 8, 8, FieldKind::kScalar});
  const auto type = static_cast<FrameType>(b[base + 4]);
  if (type == FrameType::kBusy) return;
  size_t p = base + kFrameHeaderBytes;
  const uint32_t count = DecodeFixed32(&b[p]);
  f->push_back({p, 4, FieldKind::kCount});
  p += 4;
  for (uint32_t i = 0; i < count; ++i) {
    if (type == FrameType::kRequest) {
      const auto kind = static_cast<RequestKind>(b[p]);
      f->push_back({p, 1, FieldKind::kTag});
      f->push_back({p + 1, 8, FieldKind::kScalar});
      p += 9;
      if (kind == RequestKind::kInsert || kind == RequestKind::kUpdate) {
        WalkRow(b, &p, f);
      } else if (kind == RequestKind::kGetProjected) {
        f->push_back({p, 2, FieldKind::kCount});
        p += 2 + 2 * static_cast<size_t>(DecodeFixed16(&b[p]));
      }
    } else {
      f->push_back({p, 1, FieldKind::kTag});
      f->push_back({p + 1, 2, FieldKind::kCount});
      p += 3 + DecodeFixed16(&b[p + 1]) + 4;  // code, message, shard
      f->push_back({p, 1, FieldKind::kFlag});
      if (b[p++] != 0) WalkRow(b, &p, f);
    }
  }
}

/// One valid frame of a random kind, with its fields.
Sample RandomFrame(Rng* rng) {
  Sample s;
  const uint64_t id = rng->NextU64();
  switch (rng->Uniform(5)) {
    case 0:
      AppendBusyFrame(id, &s.bytes);
      break;
    case 1:
    case 2:
      EXPECT_OK(AppendRequestFrame(id, RandomRequests(rng), &s.bytes));
      break;
    default:
      EXPECT_OK(AppendResponseFrame(id, RandomResults(rng), &s.bytes));
      break;
  }
  WalkFrame(s.bytes, 0, &s.fields);
  return s;
}

void StoreLE(std::string* b, size_t at, size_t width, uint64_t v) {
  for (size_t i = 0; i < width; ++i) {
    (*b)[at + i] = static_cast<char>(v >> (8 * i));
  }
}

uint64_t LoadLE(const std::string& b, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(b[at + i])) << (8 * i);
  }
  return v;
}

/// Applies 1-3 stacked mutations to `s->bytes`. Field positions are not
/// updated after an edit that shifts bytes; a stale one just lands
/// somewhere else, which is one more mutation.
void Mutate(Sample* s, const std::vector<Sample>& corpus, Rng* rng) {
  // Images just outside the ranges of the narrower integer types.
  static const uint64_t kScalars[] = {
      0, 1, 2, 0x7f, 0x80, 0xff, 0x100, 300, 0x7fff, 0x8000, 0xffff,
      0x7fffffff, 0x80000000, 0xffffffff, 0x100000000,
      static_cast<uint64_t>(-1), static_cast<uint64_t>(-128),
      static_cast<uint64_t>(-129), static_cast<uint64_t>(-32768),
      static_cast<uint64_t>(-32769),
      static_cast<uint64_t>(int64_t{std::numeric_limits<int32_t>::min()}),
      static_cast<uint64_t>(int64_t{std::numeric_limits<int32_t>::min()} - 1),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max())};
  static const uint64_t kCounts[] = {0, 1, 2, 0x7f, 0xff, 0x100, 0xffff,
                                     0x10000, 0x7fffffff, 0xffffffff};
  static const uint8_t kBytes[] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x07,
                                   0x08, 0x09, 0x0a, 0x0b, 0x7f, 0x80, 0xff};
  std::string& b = s->bytes;
  const int rounds = 1 + static_cast<int>(rng->Uniform(3));
  for (int r = 0; r < rounds; ++r) {
    const Field* field =
        s->fields.empty() ? nullptr
                          : &s->fields[rng->Uniform(s->fields.size())];
    const bool field_fits =
        field != nullptr && field->at + field->width <= b.size();
    switch (rng->Uniform(8)) {
      case 0:  // bit flip
        if (!b.empty()) {
          b[rng->Uniform(b.size())] ^= static_cast<char>(1u << rng->Uniform(8));
        }
        break;
      case 1:  // byte store
        if (!b.empty()) {
          b[rng->Uniform(b.size())] = static_cast<char>(
              rng->Bernoulli(0.5) ? kBytes[rng->Uniform(sizeof(kBytes))]
                                  : rng->NextU64());
        }
        break;
      case 2:  // truncation
        b.resize(rng->Uniform(b.size() + 1));
        break;
      case 3: {  // a structured field set to an edge value or nudged by one
        if (!field_fits) break;
        uint64_t v = LoadLE(b, field->at, field->width);
        switch (field->kind) {
          case FieldKind::kCount:
            v = rng->Bernoulli(0.5) ? kCounts[rng->Uniform(10)]
                                    : v + (rng->Bernoulli(0.5) ? 1 : -1);
            break;
          case FieldKind::kScalar:
            v = kScalars[rng->Uniform(sizeof(kScalars) / sizeof(kScalars[0]))];
            break;
          case FieldKind::kTag:
          case FieldKind::kFlag:
            v = kBytes[rng->Uniform(sizeof(kBytes))];
            break;
        }
        StoreLE(&b, field->at, field->width, v);
        break;
      }
      case 4:  // one byte of a structured field (a high byte of a scalar)
        if (field_fits) {
          b[field->at + rng->Uniform(field->width)] =
              static_cast<char>(rng->NextU64());
        }
        break;
      case 5: {  // splice: a prefix of this sample, a suffix of another
        const std::string& other = corpus[rng->Uniform(corpus.size())].bytes;
        const size_t cut = rng->Uniform(b.size() + 1);
        const size_t from = rng->Uniform(other.size() + 1);
        b = b.substr(0, cut) + other.substr(from);
        break;
      }
      case 6:  // duplicate a field's bytes in place (a shifted copy)
        if (field_fits) {
          b.insert(field->at, b.substr(field->at, field->width));
        }
        break;
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

// ---- Oracle -----------------------------------------------------------------

/// The wire.h header layout, written independently of the library.
std::string EncodeFrame(const Frame& frame) {
  std::string out(kFrameHeaderBytes, '\0');
  EncodeFixed32(&out[0], static_cast<uint32_t>(frame.payload.size()));
  out[4] = static_cast<char>(frame.type);
  EncodeFixed64(&out[8], frame.request_id);
  return out + frame.payload;
}

/// Decodes `payload` as a request and as a response. Each decode must fail
/// with InvalidArgument or yield a value whose encoding is `payload`.
/// Returns how many of the two accepted it.
int CheckPayload(const std::string& payload) {
  // An exactly-sized heap copy: ASan reports any read past its end.
  const size_t n = payload.size();
  std::unique_ptr<char[]> buf(new char[n == 0 ? 1 : n]);
  std::memcpy(buf.get(), payload.data(), n);
  int accepted = 0;
  std::string again;

  Result<RequestBatch> req = DecodeRequestPayload(buf.get(), n);
  if (req.ok()) {
    ++accepted;
    again.clear();
    EXPECT_OK(AppendRequestFrame(0, *req, &again));
    EXPECT_EQ(again.substr(kFrameHeaderBytes), payload)
        << "request payload did not re-encode";
  } else {
    EXPECT_TRUE(req.status().IsInvalidArgument()) << req.status().ToString();
  }

  Result<BatchResult> resp = DecodeResponsePayload(buf.get(), n);
  if (resp.ok()) {
    ++accepted;
    again.clear();
    EXPECT_OK(AppendResponseFrame(0, *resp, &again));
    EXPECT_EQ(again.substr(kFrameHeaderBytes), payload)
        << "response payload did not re-encode";
  } else {
    EXPECT_TRUE(resp.status().IsInvalidArgument()) << resp.status().ToString();
  }
  return accepted;
}

TEST(NetWireFuzzTest, PayloadDecodersAcceptOnlyWhatReencodesExactly) {
  Rng rng(20110110);
  std::vector<Sample> corpus;
  for (int i = 0; i < 128; ++i) {
    Sample frame = RandomFrame(&rng);
    if (frame.bytes.size() == kFrameHeaderBytes) continue;  // busy
    Sample payload;
    payload.bytes = frame.bytes.substr(kFrameHeaderBytes);
    for (const Field& f : frame.fields) {
      if (f.at >= kFrameHeaderBytes) {
        payload.fields.push_back({f.at - kFrameHeaderBytes, f.width, f.kind});
      }
    }
    // Unmutated, each payload is accepted by its own decoder.
    EXPECT_GE(CheckPayload(payload.bytes), 1);
    corpus.push_back(std::move(payload));
  }
  constexpr int kIterations = 100000;
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    Sample s = corpus[rng.Uniform(corpus.size())];
    Mutate(&s, corpus, &rng);
    if (CheckPayload(s.bytes) > 0) {
      ++accepted;
    } else {
      ++rejected;
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "iter " << iter;
  }
  // Both outcomes must be common, or the mutations are not reaching the
  // checks (or the decoders reject everything).
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 4);
}

TEST(NetWireFuzzTest, FrameStreamsDecodeExactlyOrPoisonTheDecoder) {
  Rng rng(20110111);
  std::vector<Sample> corpus;
  for (int i = 0; i < 128; ++i) {
    // A stream of 1-4 frames.
    Sample stream;
    const size_t frames = 1 + rng.Uniform(4);
    for (size_t f = 0; f < frames; ++f) {
      const size_t base = stream.bytes.size();
      Sample frame = RandomFrame(&rng);
      stream.bytes += frame.bytes;
      for (const Field& fd : frame.fields) {
        stream.fields.push_back({base + fd.at, fd.width, fd.kind});
      }
    }
    corpus.push_back(std::move(stream));
  }
  constexpr int kIterations = 20000;
  int frames_out = 0, poisoned = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    Sample s = corpus[rng.Uniform(corpus.size())];
    if (iter % 8 != 0) Mutate(&s, corpus, &rng);  // some stay valid
    // A small cap now and then, so oversized length prefixes are common.
    FrameDecoder decoder(rng.Bernoulli(0.25) ? 64 + rng.Uniform(512)
                                             : kDefaultMaxFramePayload);
    const std::string& in = s.bytes;
    size_t fed = 0, consumed = 0;
    bool error = false;
    Frame frame;
    while (fed < in.size()) {
      const size_t left = in.size() - fed;
      const size_t chunk =
          1 + rng.Uniform(rng.Bernoulli(0.5) ? std::min<size_t>(left, 8)
                                             : left);
      decoder.Append(in.data() + fed, chunk);
      fed += chunk;
      for (;;) {
        const FrameDecoder::Next next = decoder.Pop(&frame);
        if (error) {
          ASSERT_EQ(next, FrameDecoder::Next::kError) << "iter " << iter;
          break;
        }
        if (next == FrameDecoder::Next::kNeedMore) break;
        if (next == FrameDecoder::Next::kError) {
          error = true;
          ASSERT_FALSE(decoder.error().empty());
          break;
        }
        // The frame is exactly the next bytes of the stream, and its
        // payload decodes as its type says or is reported.
        const std::string wire = EncodeFrame(frame);
        ASSERT_EQ(wire, in.substr(consumed, wire.size())) << "iter " << iter;
        consumed += wire.size();
        ++frames_out;
        std::string again;
        if (frame.type == FrameType::kBusy) {
          AppendBusyFrame(frame.request_id, &again);
          ASSERT_EQ(again, wire) << "iter " << iter;
        } else if (frame.type == FrameType::kRequest) {
          auto batch = DecodeRequestPayload(frame.payload.data(),
                                            frame.payload.size());
          if (batch.ok()) {
            ASSERT_OK(AppendRequestFrame(frame.request_id, *batch, &again));
            ASSERT_EQ(again, wire) << "iter " << iter;
          }
        } else {
          ASSERT_EQ(frame.type, FrameType::kResponse);
          auto result = DecodeResponsePayload(frame.payload.data(),
                                              frame.payload.size());
          if (result.ok()) {
            ASSERT_OK(AppendResponseFrame(frame.request_id, *result, &again));
            ASSERT_EQ(again, wire) << "iter " << iter;
          }
        }
      }
    }
    if (error) {
      ++poisoned;
      // More bytes, even a valid frame, do not revive it.
      std::string valid;
      AppendBusyFrame(1, &valid);
      decoder.Append(valid.data(), valid.size());
      ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
    } else {
      ASSERT_EQ(consumed + decoder.buffered_bytes(), in.size())
          << "iter " << iter;
    }
  }
  EXPECT_GT(frames_out, kIterations / 2);
  EXPECT_GT(poisoned, kIterations / 10);
}

// ---- The non-canonical encodings the decoders used to absorb ----------------

/// A response payload with one OK result carrying a one-column row whose
/// value is `type` with the 8-byte image `v`.
std::string OneValueResponse(TypeId type, uint64_t v) {
  std::string wire;
  EXPECT_OK(AppendResponseFrame(
      0, BatchResult{{RequestResult{Status::OK(), {Value::Int64(0)}, 0}}},
      &wire));
  std::string payload = wire.substr(kFrameHeaderBytes);
  // count(4) code(1) msg_len(2) shard(4) has_row(1) ncols(2) type(1) value(8)
  payload[14] = static_cast<char>(type);
  StoreLE(&payload, 15, 8, v);
  return payload;
}

TEST(NetWireFuzzTest, OutOfRangeScalarsAreRejectedNotTruncated) {
  const struct {
    TypeId type;
    uint64_t v;
    bool ok;
  } cases[] = {
      {TypeId::kBool, 0, true},
      {TypeId::kBool, 1, true},
      {TypeId::kBool, 2, false},
      {TypeId::kInt8, 127, true},
      {TypeId::kInt8, static_cast<uint64_t>(-128), true},
      {TypeId::kInt8, 300, false},
      {TypeId::kInt8, 128, false},
      {TypeId::kInt8, static_cast<uint64_t>(-129), false},
      {TypeId::kInt16, 0x8000, false},
      {TypeId::kInt16, static_cast<uint64_t>(-32768), true},
      {TypeId::kInt32, 0x80000000, false},
      {TypeId::kInt32, 0x7fffffff, true},
      {TypeId::kTimestamp, 0xffffffff, true},
      {TypeId::kTimestamp, 0x100000000, false},
      {TypeId::kTimestamp, static_cast<uint64_t>(-1), false},
      {TypeId::kInt64, static_cast<uint64_t>(-1), true},
  };
  for (const auto& c : cases) {
    const std::string payload = OneValueResponse(c.type, c.v);
    auto decoded = DecodeResponsePayload(payload.data(), payload.size());
    EXPECT_EQ(decoded.ok(), c.ok)
        << "type " << static_cast<int>(c.type) << " image " << c.v;
    CheckPayload(payload);
  }
}

TEST(NetWireFuzzTest, NonCanonicalResponseFieldsAreRejected) {
  std::string wire;
  ASSERT_OK(AppendResponseFrame(
      0, BatchResult{{RequestResult{Status::OK(), {}, 0}}}, &wire));
  const std::string base = wire.substr(kFrameHeaderBytes);
  // count(4) code(1) msg_len(2) shard(4) has_row(1)
  ASSERT_EQ(base.size(), 12u);
  ASSERT_OK(DecodeResponsePayload(base.data(), base.size()).status());

  std::string bad = base;
  bad[11] = 2;  // has_row must be 0 or 1
  EXPECT_FALSE(DecodeResponsePayload(bad.data(), bad.size()).ok());

  bad = base;
  bad[11] = 1;
  bad += std::string(2, '\0');  // a present row of zero columns
  EXPECT_FALSE(DecodeResponsePayload(bad.data(), bad.size()).ok());

  bad = base;
  bad[5] = 1;  // an OK status carrying a one-byte message
  bad.insert(7, "x");
  EXPECT_FALSE(DecodeResponsePayload(bad.data(), bad.size()).ok());
}

TEST(NetWireFuzzTest, NonCanonicalHeadersPoisonTheDecoder) {
  std::string busy;
  AppendBusyFrame(9, &busy);
  for (size_t reserved = 5; reserved < 8; ++reserved) {
    std::string bad = busy;
    bad[reserved] = 1;
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    Frame frame;
    EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError) << reserved;
  }
  std::string with_payload = busy;
  with_payload[0] = 1;  // a busy frame carrying one payload byte
  with_payload += 'x';
  FrameDecoder decoder;
  decoder.Append(with_payload.data(), with_payload.size());
  Frame frame;
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
}

}  // namespace
}  // namespace nblb::net
