// Wire-protocol robustness: frame round trips, streaming reassembly from
// torn byte arrivals, the permanent-error contract on garbage bytes,
// oversized length prefixes, and malformed payloads, and the transcoded
// reply of stored images (RowForm::kImage results) matching the Row-form
// reply byte for byte.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "catalog/row_codec.h"
#include "net/wire.h"
#include "test_util.h"

namespace nblb::net {
namespace {

RequestBatch SampleBatch() {
  RequestBatch batch;
  batch.push_back(Request::Get(42));
  batch.push_back(Request::GetProjected(43, {0, 2}));
  batch.push_back(Request::Insert(
      44, {Value::Int64(44), Value::Char("hello"), Value::Float64(2.5),
           Value::Bool(true), Value::Timestamp(123456)}));
  batch.push_back(Request::Update(45, {Value::Int64(45), Value::Varchar("")}));
  batch.push_back(Request::Delete(46));
  return batch;
}

void ExpectBatchEq(const RequestBatch& a, const RequestBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "request " << i;
    EXPECT_EQ(a[i].id, b[i].id) << "request " << i;
    EXPECT_EQ(a[i].projection, b[i].projection) << "request " << i;
    ASSERT_EQ(a[i].row.size(), b[i].row.size()) << "request " << i;
    for (size_t c = 0; c < a[i].row.size(); ++c) {
      EXPECT_EQ(a[i].row[c].type(), b[i].row[c].type());
      EXPECT_EQ(a[i].row[c].ToString(), b[i].row[c].ToString());
    }
  }
}

TEST(NetWireTest, RequestFrameRoundTrip) {
  const RequestBatch batch = SampleBatch();
  std::string wire;
  AppendRequestFrame(77, batch, &wire);

  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.request_id, 77u);
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kNeedMore);

  auto decoded = DecodeRequestPayload(frame.payload.data(),
                                      frame.payload.size());
  ASSERT_OK(decoded.status());
  ExpectBatchEq(batch, *decoded);
}

TEST(NetWireTest, ResponseFrameRoundTrip) {
  BatchResult result;
  RequestResult ok;
  ok.status = Status::OK();
  ok.row = {Value::Int64(7), Value::Char("payload")};
  ok.shard = 3;
  result.results.push_back(ok);
  RequestResult missing;
  missing.status = Status::NotFound("id 9 not found");
  missing.shard = 1;
  result.results.push_back(missing);
  RequestResult busy;
  busy.status = Status::Busy();
  result.results.push_back(busy);

  std::string wire;
  AppendResponseFrame(501, result, &wire);
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.request_id, 501u);

  auto decoded = DecodeResponsePayload(frame.payload.data(),
                                       frame.payload.size());
  ASSERT_OK(decoded.status());
  ASSERT_EQ(decoded->results.size(), 3u);
  ASSERT_OK(decoded->results[0].status);
  ASSERT_EQ(decoded->results[0].row.size(), 2u);
  EXPECT_EQ(decoded->results[0].row[1].AsString(), "payload");
  EXPECT_EQ(decoded->results[0].shard, 3u);
  EXPECT_TRUE(decoded->results[1].status.IsNotFound());
  EXPECT_EQ(decoded->results[1].status.message(), "id 9 not found");
  EXPECT_TRUE(decoded->results[2].status.IsBusy());
}

TEST(NetWireTest, BusyFrameRoundTrip) {
  std::string wire;
  AppendBusyFrame(99, &wire);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes);
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, FrameType::kBusy);
  EXPECT_EQ(frame.request_id, 99u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(NetWireTest, TornFramesReassembleByteByByte) {
  // Three frames, delivered one byte at a time: TCP's worst case.
  std::string wire;
  AppendRequestFrame(1, SampleBatch(), &wire);
  AppendBusyFrame(2, &wire);
  AppendRequestFrame(3, {Request::Get(5)}, &wire);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame frame;
  for (char byte : wire) {
    decoder.Append(&byte, 1);
    FrameDecoder::Next next;
    while ((next = decoder.Pop(&frame)) == FrameDecoder::Next::kFrame) {
      frames.push_back(frame);
    }
    ASSERT_EQ(next, FrameDecoder::Next::kNeedMore);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].request_id, 1u);
  EXPECT_EQ(frames[1].type, FrameType::kBusy);
  EXPECT_EQ(frames[2].request_id, 3u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetWireTest, ManyFramesInOneAppend) {
  std::string wire;
  constexpr int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    AppendRequestFrame(static_cast<uint64_t>(i),
                       {Request::Get(static_cast<uint64_t>(i))}, &wire);
  }
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame) << i;
    EXPECT_EQ(frame.request_id, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kNeedMore);
}

TEST(NetWireTest, GarbageBytesPoisonTheDecoder) {
  FrameDecoder decoder;
  // 16 bytes of 0xff: length prefix 0xffffffff (over any cap) and frame
  // type 0xff — either check alone is fatal.
  std::string garbage(32, '\xff');
  decoder.Append(garbage.data(), garbage.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
  EXPECT_FALSE(decoder.error().empty());
  // Poisoned: even a valid frame appended afterwards stays an error —
  // framing cannot be resynchronized.
  std::string valid;
  AppendBusyFrame(1, &valid);
  decoder.Append(valid.data(), valid.size());
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
}

TEST(NetWireTest, UnknownFrameTypeIsError) {
  std::string wire;
  AppendBusyFrame(7, &wire);
  wire[4] = 0x09;  // type byte: not a FrameType
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
}

TEST(NetWireTest, OversizedLengthPrefixIsErrorBeforePayloadArrives) {
  // A length prefix above the cap must fail from the header alone — the
  // decoder must not wait for (or buffer) 100 MiB of payload.
  FrameDecoder decoder(/*max_payload=*/1024);
  std::string header;
  AppendRequestFrame(1, {Request::Get(1)}, &header);
  header.resize(kFrameHeaderBytes);
  header[0] = '\x00';
  header[1] = '\x00';
  header[2] = '\x40';  // 4 MiB little-endian: 0x00400000
  header[3] = '\x00';
  decoder.Append(header.data(), header.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().find("exceeds cap"), std::string::npos);
}

TEST(NetWireTest, PayloadAtTheCapStillDecodes) {
  FrameDecoder decoder(/*max_payload=*/1 << 16);
  RequestBatch batch;
  batch.push_back(Request::Insert(
      1, {Value::Int64(1), Value::Char(std::string(1000, 'x'))}));
  std::string wire;
  AppendRequestFrame(5, batch, &wire);
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  auto decoded =
      DecodeRequestPayload(frame.payload.data(), frame.payload.size());
  ASSERT_OK(decoded.status());
}

TEST(NetWireTest, UnknownRequestKindFailsDecode) {
  std::string wire;
  AppendRequestFrame(1, {Request::Get(1)}, &wire);
  wire[kFrameHeaderBytes + 4] = 0x7f;  // kind byte of request 0
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  auto decoded =
      DecodeRequestPayload(frame.payload.data(), frame.payload.size());
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown request kind"),
            std::string::npos);
}

TEST(NetWireTest, TruncatedPayloadFailsDecode) {
  std::string wire;
  AppendRequestFrame(1, SampleBatch(), &wire);
  // Strip the frame header, then truncate the payload mid-row.
  std::string payload = wire.substr(kFrameHeaderBytes);
  auto decoded = DecodeRequestPayload(payload.data(), payload.size() - 7);
  EXPECT_FALSE(decoded.ok());
}

TEST(NetWireTest, TrailingBytesFailDecode) {
  std::string wire;
  AppendRequestFrame(1, {Request::Get(1)}, &wire);
  std::string payload = wire.substr(kFrameHeaderBytes);
  payload.append("xx");
  auto decoded = DecodeRequestPayload(payload.data(), payload.size());
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(NetWireTest, ForgedHugeRequestCountFailsWithoutAllocating) {
  // A tiny payload claiming 2^32-1 requests must be rejected from the count
  // alone — sizing an allocation from it would be a remote OOM/DoS.
  std::string payload;
  char count[4];
  std::memset(count, 0xff, 4);  // count = 0xffffffff
  payload.append(count, 4);
  payload.append(16, '\0');  // a few bytes of "requests"
  auto decoded = DecodeRequestPayload(payload.data(), payload.size());
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("cannot fit"), std::string::npos);
}

TEST(NetWireTest, ForgedHugeResponseCountFailsWithoutAllocating) {
  std::string payload;
  char count[4];
  std::memset(count, 0xff, 4);
  payload.append(count, 4);
  payload.append(16, '\0');
  auto decoded = DecodeResponsePayload(payload.data(), payload.size());
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("cannot fit"), std::string::npos);
}

TEST(NetWireTest, EncodeRejectsOversizedProjection) {
  // 65536 projection columns cannot be represented by the u16 count on the
  // wire; encoding must fail loudly instead of truncating the count.
  RequestBatch batch;
  batch.push_back(Request::GetProjected(1, std::vector<size_t>(65536, 0)));
  std::string wire;
  Status st = AppendRequestFrame(1, batch, &wire);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(wire.empty());  // failed encode leaves the buffer untouched
  EXPECT_NE(st.message().find("overflows"), std::string::npos);
}

TEST(NetWireTest, EncodeRejectsOversizedRow) {
  RequestBatch batch;
  batch.push_back(Request::Insert(1, Row(65536, Value::Bool(true))));
  std::string wire;
  Status st = AppendRequestFrame(1, batch, &wire);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(wire.empty());
}

TEST(NetWireTest, MalformedRowTypeFailsDecode) {
  RequestBatch batch;
  batch.push_back(Request::Insert(1, {Value::Int64(1)}));
  std::string wire;
  AppendRequestFrame(1, batch, &wire);
  // Row layout after kind+id: u16 ncols, then u8 TypeId — corrupt the type.
  wire[kFrameHeaderBytes + 4 + 1 + 8 + 2] = 0x66;
  std::string payload = wire.substr(kFrameHeaderBytes);
  auto decoded = DecodeRequestPayload(payload.data(), payload.size());
  EXPECT_FALSE(decoded.ok());
}

TEST(NetWireTest, LongLivedDecoderCompactsItsBuffer) {
  // Stream many frames through one decoder; the consumed prefix must be
  // reclaimed instead of growing without bound.
  FrameDecoder decoder;
  std::string wire;
  RequestBatch batch;
  batch.push_back(Request::Insert(
      1, {Value::Int64(1), Value::Char(std::string(4096, 'p'))}));
  AppendRequestFrame(1, batch, &wire);
  Frame frame;
  for (int i = 0; i < 1000; ++i) {
    decoder.Append(wire.data(), wire.size());
    ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
    ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kNeedMore);
    ASSERT_EQ(decoder.buffered_bytes(), 0u);
  }
}

// ---- Golden frames -----------------------------------------------------------
//
// The bytes below were written by the earlier encoder, which grew a payload
// string value by value and then copied it behind the header. The sized
// encoder must write the same bytes.

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(NetWireGoldenTest, OkRowsOfEveryType) {
  BatchResult result;
  RequestResult every;
  every.shard = 2;
  every.row = {Value::Bool(true),        Value::Int8(-5),
               Value::Int16(-300),       Value::Int32(-70000),
               Value::Int64(-5000000000LL), Value::Timestamp(1300000000u),
               Value::Float64(-2.5),     Value::Char("abc"),
               Value::Varchar("hello, wire")};
  result.results.push_back(every);
  RequestResult empty_strings;
  empty_strings.row = {Value::Int64(7), Value::Varchar(""), Value::Char("")};
  result.results.push_back(empty_strings);
  std::string wire;
  ASSERT_OK(AppendResponseFrame(0x0102030405060708ull, result, &wire));
  EXPECT_EQ(wire,
            Unhex("8200000002000000080706050403020102000000000000020000000109"
                  "0000010000000000000001fbffffffffffffff02d4feffffffffffff03"
                  "90eefeffffffffff04000efad5feffffff06006d7c4d00000000050000"
                  "0000000004c00703000000616263080b00000068656c6c6f2c207769"
                  "72650000000000000001030004070000000000000008000000000700"
                  "000000"));
}

BatchResult ErrorAndNoRow() {
  BatchResult result;
  RequestResult error;
  error.status = Status::NotFound("key 42 not found");
  error.shard = 3;
  result.results.push_back(error);
  RequestResult no_row;
  no_row.shard = 1;
  result.results.push_back(no_row);
  return result;
}

TEST(NetWireGoldenTest, ErrorWithAMessageAndAResultWithNoRow) {
  std::string wire;
  ASSERT_OK(AppendResponseFrame(9, ErrorAndNoRow(), &wire));
  EXPECT_EQ(wire,
            Unhex("24000000020000000900000000000000020000000110006b6579203432"
                  "206e6f7420666f756e6403000000000000000100000000"));
}

TEST(NetWireGoldenTest, MessageOverU16IsTruncated) {
  BatchResult result;
  RequestResult r;
  r.status = Status::Corruption(std::string(70000, 'm'));
  r.shard = 1;
  result.results.push_back(r);
  std::string wire;
  ASSERT_OK(AppendResponseFrame(11, result, &wire));
  EXPECT_EQ(wire, Unhex("0b000100020000000b000000000000000100000004ffff") +
                      std::string(65535, 'm') + Unhex("0100000000"));
}

TEST(NetWireGoldenTest, AppendKeepsTheBytesAlreadyInOut) {
  std::string wire = "keep-me";
  ASSERT_OK(AppendResponseFrame(5, ErrorAndNoRow(), &wire));
  AppendBusyFrame(6, &wire);
  EXPECT_EQ(wire,
            Unhex("6b6565702d6d6524000000020000000500000000000000020000000110"
                  "006b6579203432206e6f7420666f756e64030000000000000001000000"
                  "0000000000030000000600000000000000"));
}

TEST(NetWireGoldenTest, RequestOfEveryKind) {
  RequestBatch batch;
  batch.push_back(Request::Get(1));
  batch.push_back(Request::GetProjected(2, {0, 3}));
  batch.push_back(Request::Insert(3, {Value::Int64(3), Value::Char("x")}));
  batch.push_back(Request::Update(4, {Value::Int64(4), Value::Varchar("yz")}));
  batch.push_back(Request::Delete(5));
  std::string wire;
  ASSERT_OK(AppendRequestFrame(77, batch, &wire));
  EXPECT_EQ(wire,
            Unhex("5a000000010000004d00000000000000050000000001000000000000"
                  "00010200000000000000020000000300020300000000000000020004"
                  "03000000000000000701000000780304000000000000000200040400"
                  "0000000000000802000000797a040500000000000000"));
}

TEST(NetWireGoldenTest, FailedResponseEncodeLeavesOutUntouched) {
  BatchResult result;
  RequestResult r;
  r.row = Row(65536, Value::Bool(true));
  result.results.push_back(r);
  std::string wire = "keep-me";
  EXPECT_FALSE(AppendResponseFrame(1, result, &wire).ok());
  EXPECT_EQ(wire, "keep-me");
}

// ---- Transcoded images ------------------------------------------------------
//
// A RowForm::kImage result carries a get's stored image instead of a Row,
// and AppendResponseFrame transcodes it. The frame must be byte for byte the
// one the Row-form result of the same rows encodes to.

Schema EveryTypeSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"flag", TypeId::kBool, 0},
                 {"i8", TypeId::kInt8, 0},
                 {"i16", TypeId::kInt16, 0},
                 {"i32", TypeId::kInt32, 0},
                 {"ts", TypeId::kTimestamp, 0},
                 {"score", TypeId::kFloat64, 0},
                 {"code", TypeId::kChar, 8},
                 {"text", TypeId::kVarchar, 6},
                 {"tag", TypeId::kVarchar, 3}});
}

double NanWithPayload() {
  const uint64_t bits = 0x7ff8000000000123ull;
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

/// Rows covering negative INT8/16/32, a TIMESTAMP >= 2^31, a NaN, CHAR
/// padding (and a CHAR with inner and no trailing spaces), and empty and
/// full VARCHARs.
std::vector<Row> EveryTypeRows() {
  return {
      {Value::Int64(-9), Value::Bool(true), Value::Int8(-128),
       Value::Int16(-300), Value::Int32(-70000), Value::Timestamp(3000000000u),
       Value::Float64(NanWithPayload()), Value::Char("ab"), Value::Varchar(""),
       Value::Varchar("xyz")},
      {Value::Int64(std::numeric_limits<int64_t>::max()), Value::Bool(false),
       Value::Int8(127), Value::Int16(32767), Value::Int32(-1),
       Value::Timestamp(0), Value::Float64(-0.0), Value::Char("a b  c"),
       Value::Varchar("abcdef"), Value::Varchar("")},
      {Value::Int64(3), Value::Bool(true), Value::Int8(0), Value::Int16(-1),
       Value::Int32(std::numeric_limits<int32_t>::min()),
       Value::Timestamp(UINT32_MAX), Value::Float64(2.5), Value::Char(""),
       Value::Varchar("q"), Value::Varchar("abc")},
  };
}

/// The same results in both forms: every row as a stored image in the
/// image form (`fixed` picks the fixed image over the trimmed one for row
/// i), and as that row in the Row form; plus a NotFound, a Corruption, a
/// result with no row and a projected row, which both forms carry alike.
void BothForms(const RowCodec& codec, const std::vector<Row>& rows,
               const std::vector<bool>& fixed, BatchResult* image_form,
               BatchResult* row_form) {
  image_form->image_codec = &codec;
  image_form->images.resize(3);
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t shard = static_cast<uint32_t>(i % 2);
    std::string image;
    if (fixed[i]) {
      ASSERT_OK_AND_ASSIGN(image, codec.Encode(rows[i]));
    } else {
      ASSERT_OK(codec.EncodeTrimmed(rows[i], &image));
    }
    std::string& buf = image_form->images[shard];
    RequestResult with_image;
    with_image.shard = shard;
    with_image.image = {static_cast<uint32_t>(buf.size()),
                        static_cast<uint32_t>(image.size()), true};
    buf += image;
    image_form->results.push_back(with_image);
    RequestResult with_row;
    with_row.shard = shard;
    with_row.row = rows[i];
    row_form->results.push_back(with_row);

    RequestResult other;  // interleaved with the images
    other.shard = 2;
    switch (i) {
      case 0:
        other.status = Status::NotFound("key 12 not found");
        break;
      case 1:
        other.status = Status::Corruption("VARCHAR length over capacity");
        break;
      default:
        other.row = {Value::Char("projected"), Value::Int16(-2)};
        break;
    }
    image_form->results.push_back(other);
    row_form->results.push_back(other);
  }
  RequestResult no_row;  // an OK result with no row, e.g. a put's
  no_row.shard = 1;
  image_form->results.push_back(no_row);
  row_form->results.push_back(no_row);
}

TEST(NetWireImageTest, ImageFormEncodesAsTheRowForm) {
  const Schema schema = EveryTypeSchema();
  const RowCodec codec(&schema);
  const std::vector<Row> rows = EveryTypeRows();
  // Trimmed and fixed images alike: a stored image of exactly row_size()
  // bytes is read as a fixed image, VARCHAR padding skipped.
  for (const std::vector<bool>& fixed :
       {std::vector<bool>{false, false, false},
        std::vector<bool>{true, true, true},
        std::vector<bool>{true, false, true}}) {
    BatchResult image_form, row_form;
    BothForms(codec, rows, fixed, &image_form, &row_form);
    std::string via_image = "prefix", via_row = "prefix";
    ASSERT_OK(AppendResponseFrame(33, image_form, &via_image));
    ASSERT_OK(AppendResponseFrame(33, row_form, &via_row));
    EXPECT_EQ(via_image, via_row);

    // And it decodes to the rows, the NaN's payload bits included.
    auto decoded = DecodeResponsePayload(
        via_image.data() + 6 + kFrameHeaderBytes,
        via_image.size() - 6 - kFrameHeaderBytes);
    ASSERT_OK(decoded.status());
    ASSERT_EQ(decoded->results.size(), 7u);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& got = decoded->results[2 * i].row;
      ASSERT_EQ(got.size(), rows[i].size()) << "row " << i;
      for (size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(got[c].type(), rows[i][c].type()) << "row " << i;
        if (got[c].type() == TypeId::kFloat64) {
          uint64_t want_bits, got_bits;
          const double want_d = rows[i][c].AsDouble();
          const double got_d = got[c].AsDouble();
          std::memcpy(&want_bits, &want_d, 8);
          std::memcpy(&got_bits, &got_d, 8);
          EXPECT_EQ(got_bits, want_bits) << "row " << i;
        } else {
          EXPECT_EQ(got[c], rows[i][c]) << "row " << i << " column " << c;
        }
      }
    }
    EXPECT_TRUE(decoded->results[1].status.IsNotFound());
    EXPECT_TRUE(decoded->results[3].status.IsCorruption());
    EXPECT_TRUE(decoded->results[6].row.empty());
  }
}

TEST(NetWireImageTest, CharPaddingIsTrimmedAsTheDecoderTrimsIt) {
  // "ab" is stored as "ab      ": the reply carries "ab", as the Row does.
  const Schema schema({{"id", TypeId::kInt64, 0}, {"c", TypeId::kChar, 8}});
  const RowCodec codec(&schema);
  std::string image;
  ASSERT_OK(codec.EncodeTrimmed({Value::Int64(1), Value::Char("ab")}, &image));
  ASSERT_EQ(image.substr(8), "ab      ");
  BatchResult result;
  result.image_codec = &codec;
  result.images = {image};
  result.results.resize(1);
  result.results[0].image = {0, static_cast<uint32_t>(image.size()), true};
  std::string wire;
  ASSERT_OK(AppendResponseFrame(1, result, &wire));
  auto decoded = DecodeResponsePayload(wire.data() + kFrameHeaderBytes,
                                       wire.size() - kFrameHeaderBytes);
  ASSERT_OK(decoded.status());
  ASSERT_EQ(decoded->results[0].row.size(), 2u);
  EXPECT_EQ(decoded->results[0].row[1].AsString(), "ab");
}

TEST(NetWireImageTest, AnImageTheDecoderRejectsFailsTheFrame) {
  const Schema schema = EveryTypeSchema();
  const RowCodec codec(&schema);
  std::string image;
  ASSERT_OK(codec.EncodeTrimmed(EveryTypeRows()[0], &image));
  image[8] = 2;  // the BOOL byte
  Row row;
  const Status want = codec.DecodeInto(Slice(image), &row);
  ASSERT_TRUE(want.IsCorruption());
  BatchResult result;
  result.image_codec = &codec;
  result.images = {image};
  result.results.resize(1);
  result.results[0].image = {0, static_cast<uint32_t>(image.size()), true};
  std::string wire = "keep-me";
  const Status got = AppendResponseFrame(1, result, &wire);
  EXPECT_TRUE(got.IsCorruption());
  EXPECT_EQ(got.message(), want.message());
  EXPECT_EQ(wire, "keep-me");
}

}  // namespace
}  // namespace nblb::net
