#include "net/wire.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace nblb::net {
namespace {

// ---- Sized writing ----------------------------------------------------------
//
// Every encoder body is written once, as a template over its output, and run
// twice: over a Sizer, which adds up the frame's exact size and checks every
// count against its wire integer, then over a Writer, which writes the bytes
// in place into `out`, grown once to that size. So the size cannot drift
// from the bytes, and a frame costs one allocation at most.

/// Counts the bytes the same calls on a Writer would write.
class Sizer {
 public:
  void U8(uint8_t) { n_ += 1; }
  void U16(uint16_t) { n_ += 2; }
  void U32(uint32_t) { n_ += 4; }
  void U64(uint64_t) { n_ += 8; }
  void Bytes(const char*, size_t n) { n_ += n; }
  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

/// Writes little-endian integers and raw bytes through a cursor into space
/// the caller sized with a Sizer.
class Writer {
 public:
  explicit Writer(char* p) : p_(p) {}
  void U8(uint8_t v) { *p_++ = static_cast<char>(v); }
  void U16(uint16_t v) {
    EncodeFixed16(p_, v);
    p_ += 2;
  }
  void U32(uint32_t v) {
    EncodeFixed32(p_, v);
    p_ += 4;
  }
  void U64(uint64_t v) {
    EncodeFixed64(p_, v);
    p_ += 8;
  }
  void Bytes(const char* data, size_t n) {
    std::memcpy(p_, data, n);
    p_ += n;
  }

 private:
  char* p_;
};

// ---- Bounded reader over a payload ------------------------------------------

/// Cursor with explicit bounds checking: every read either succeeds or marks
/// the cursor failed, so decoders validate once at the end instead of
/// sprinkling length checks.
class Reader {
 public:
  Reader(const char* data, size_t len) : p_(data), end_(data + len) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(*p_++);
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = DecodeFixed16(p_);
    p_ += 2;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = DecodeFixed32(p_);
    p_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = DecodeFixed64(p_);
    p_ += 8;
    return v;
  }
  std::string Bytes(size_t n) {
    if (!Need(n)) return std::string();
    std::string s(p_, n);
    p_ += n;
    return s;
  }

  bool failed() const { return failed_; }
  bool exhausted() const { return p_ == end_; }

 private:
  bool Need(size_t n) {
    if (failed_ || static_cast<size_t>(end_ - p_) < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool failed_ = false;
};

// ---- Row codec (self-describing) --------------------------------------------

template <typename Out>
bool PutValue(Out* out, const Value& v) {
  out->U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kBool:
    case TypeId::kInt8:
    case TypeId::kInt16:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      out->U64(static_cast<uint64_t>(v.AsInt()));
      break;
    case TypeId::kFloat64: {
      double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      out->U64(bits);
      break;
    }
    case TypeId::kChar:
    case TypeId::kVarchar: {
      const std::string& s = v.AsString();
      if (s.size() > UINT32_MAX) return false;
      out->U32(static_cast<uint32_t>(s.size()));
      out->Bytes(s.data(), s.size());
      break;
    }
  }
  return true;
}

template <typename Out>
bool PutRow(Out* out, const Row& row) {
  if (row.size() > UINT16_MAX) return false;
  out->U16(static_cast<uint16_t>(row.size()));
  for (const Value& v : row) {
    if (!PutValue(out, v)) return false;
  }
  return true;
}

/// Transcodes the stored image `image` into exactly the bytes
/// PutRow(codec.DecodeInto(image)) writes, building no Row: the one checked
/// walker (RowCodec::Walk) hands over each column's bytes, and each is
/// written as PutValue writes the Value DecodeInto would make of it. An
/// image DecodeInto rejects fails with its Corruption.
template <typename Out>
Status PutImageRow(Out* out, const RowCodec& codec, const Slice& image) {
  const size_t columns = codec.schema()->num_columns();
  if (columns > UINT16_MAX) {
    return Status::InvalidArgument(
        "result row overflows the wire format (column count)");
  }
  out->U16(static_cast<uint16_t>(columns));
  return codec.Walk(image, [out](const Column& c, const char* p, size_t n) {
    out->U8(static_cast<uint8_t>(c.type));
    switch (c.type) {
      case TypeId::kBool:  // Walk admits only 0 and 1
        out->U64(static_cast<uint8_t>(*p));
        break;
      case TypeId::kInt8:  // signed types sign-extend, as Value::AsInt does
        out->U64(static_cast<uint64_t>(static_cast<int8_t>(*p)));
        break;
      case TypeId::kInt16:
        out->U64(static_cast<uint64_t>(
            static_cast<int16_t>(DecodeFixed16(p))));
        break;
      case TypeId::kInt32:
        out->U64(static_cast<uint64_t>(
            static_cast<int32_t>(DecodeFixed32(p))));
        break;
      case TypeId::kTimestamp:  // unsigned seconds zero-extend
        out->U64(DecodeFixed32(p));
        break;
      case TypeId::kInt64:
      case TypeId::kFloat64:  // the stored bits
        out->U64(DecodeFixed64(p));
        break;
      case TypeId::kChar: {  // without the padding, as DecodeInto trims it
        while (n > 0 && p[n - 1] == ' ') --n;
        out->U32(static_cast<uint32_t>(n));
        out->Bytes(p, n);
        break;
      }
      case TypeId::kVarchar:
        out->U32(static_cast<uint32_t>(n));
        out->Bytes(p, n);
        break;
    }
  });
}

/// Appends one frame: `put(&o)` writes the payload to an output `o` and
/// returns non-OK when a count overflows its wire integer. A sizing pass
/// validates and measures, then `out` grows once and the header and payload
/// are written in place. On failure `out` is untouched.
template <typename Put>
Status AppendFrame(FrameType type, uint64_t request_id, const Put& put,
                   std::string* out) {
  Sizer payload;
  NBLB_RETURN_NOT_OK(put(&payload));
  const size_t base = out->size();
  out->resize(base + kFrameHeaderBytes + payload.size());
  Writer w(out->data() + base);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U8(static_cast<uint8_t>(type));
  w.U8(0);
  w.U16(0);
  w.U64(request_id);
  return put(&w);  // the sizing pass already accepted every count
}

template <typename Out>
Status PutRequests(Out* out, const RequestBatch& batch) {
  // Fail loudly on anything whose count would not round-trip through the
  // wire integers — a silently truncated count desyncs request/response
  // pairing on the far side.
  if (batch.size() > UINT32_MAX) {
    return Status::InvalidArgument("request batch of " +
                                   std::to_string(batch.size()) +
                                   " overflows the wire format");
  }
  out->U32(static_cast<uint32_t>(batch.size()));
  for (const Request& req : batch) {
    out->U8(static_cast<uint8_t>(req.kind));
    out->U64(req.id);
    switch (req.kind) {
      case RequestKind::kInsert:
      case RequestKind::kUpdate:
        if (!PutRow(out, req.row)) {
          return Status::InvalidArgument(
              "request row overflows the wire format (column count or "
              "string length)");
        }
        break;
      case RequestKind::kGetProjected:
        if (req.projection.size() > UINT16_MAX) {
          return Status::InvalidArgument(
              "projection of " + std::to_string(req.projection.size()) +
              " columns overflows the wire format");
        }
        out->U16(static_cast<uint16_t>(req.projection.size()));
        for (size_t col : req.projection) {
          out->U16(static_cast<uint16_t>(col));
        }
        break;
      case RequestKind::kGet:
      case RequestKind::kDelete:
        break;
    }
  }
  return Status::OK();
}

template <typename Out>
Status PutResults(Out* out, const BatchResult& result) {
  if (result.results.size() > UINT32_MAX) {
    return Status::InvalidArgument("result batch of " +
                                   std::to_string(result.results.size()) +
                                   " overflows the wire format");
  }
  out->U32(static_cast<uint32_t>(result.results.size()));
  for (const RequestResult& r : result.results) {
    out->U8(static_cast<uint8_t>(r.status.code()));
    // A message longer than its u16 length is truncated, not refused.
    const std::string& msg = r.status.message();
    const size_t msg_len = std::min<size_t>(msg.size(), UINT16_MAX);
    out->U16(static_cast<uint16_t>(msg_len));
    out->Bytes(msg.data(), msg_len);
    out->U32(r.shard);
    if (r.image.present) {
      // A stored image: transcoded, never decoded into a Row. The encoder
      // writes has_row = 1 only for a row of at least one column.
      const RowCodec& codec = *result.image_codec;
      const bool has_row = codec.schema()->num_columns() > 0;
      out->U8(has_row ? 1 : 0);
      if (has_row) {
        NBLB_RETURN_NOT_OK(PutImageRow(out, codec, result.ImageOf(r)));
      }
      continue;
    }
    const bool has_row = !r.row.empty();
    out->U8(has_row ? 1 : 0);
    if (has_row && !PutRow(out, r.row)) {
      return Status::InvalidArgument(
          "result row overflows the wire format (column count or "
          "string length)");
    }
  }
  return Status::OK();
}

/// Reads an integer-family value: the u64 image the encoder writes of an
/// int64 in [lo, hi]. Any other image is corrupt, never truncated into range.
bool ReadInt(Reader* r, int64_t lo, int64_t hi, int64_t* out) {
  *out = static_cast<int64_t>(r->U64());
  return *out >= lo && *out <= hi;
}

bool ReadValue(Reader* r, Value* out) {
  const uint8_t type = r->U8();
  if (type > static_cast<uint8_t>(TypeId::kVarchar)) return false;
  const TypeId t = static_cast<TypeId>(type);
  int64_t v = 0;
  switch (t) {
    case TypeId::kBool:
      if (!ReadInt(r, 0, 1, &v)) return false;
      *out = Value::Bool(v != 0);
      break;
    case TypeId::kInt8:
      if (!ReadInt(r, INT8_MIN, INT8_MAX, &v)) return false;
      *out = Value::Int8(static_cast<int8_t>(v));
      break;
    case TypeId::kInt16:
      if (!ReadInt(r, INT16_MIN, INT16_MAX, &v)) return false;
      *out = Value::Int16(static_cast<int16_t>(v));
      break;
    case TypeId::kInt32:
      if (!ReadInt(r, INT32_MIN, INT32_MAX, &v)) return false;
      *out = Value::Int32(static_cast<int32_t>(v));
      break;
    case TypeId::kInt64:
      *out = Value::Int64(static_cast<int64_t>(r->U64()));
      break;
    case TypeId::kTimestamp:
      if (!ReadInt(r, 0, UINT32_MAX, &v)) return false;
      *out = Value::Timestamp(static_cast<uint32_t>(v));
      break;
    case TypeId::kFloat64: {
      uint64_t bits = r->U64();
      double d;
      std::memcpy(&d, &bits, 8);
      *out = Value::Float64(d);
      break;
    }
    case TypeId::kChar: {
      uint32_t n = r->U32();
      *out = Value::Char(r->Bytes(n));
      break;
    }
    case TypeId::kVarchar: {
      uint32_t n = r->U32();
      *out = Value::Varchar(r->Bytes(n));
      break;
    }
  }
  return !r->failed();
}

bool ReadRow(Reader* r, Row* out) {
  const uint16_t ncols = r->U16();
  out->clear();
  out->reserve(ncols);
  for (uint16_t i = 0; i < ncols; ++i) {
    Value v;
    if (!ReadValue(r, &v)) return false;
    out->push_back(std::move(v));
  }
  return !r->failed();
}

}  // namespace

// ---- Frame encoders ---------------------------------------------------------

Status AppendRequestFrame(uint64_t request_id, const RequestBatch& batch,
                          std::string* out) {
  return AppendFrame(
      FrameType::kRequest, request_id,
      [&](auto* o) { return PutRequests(o, batch); }, out);
}

Status AppendResponseFrame(uint64_t request_id, const BatchResult& result,
                           std::string* out) {
  return AppendFrame(
      FrameType::kResponse, request_id,
      [&](auto* o) { return PutResults(o, result); }, out);
}

void AppendBusyFrame(uint64_t request_id, std::string* out) {
  (void)AppendFrame(
      FrameType::kBusy, request_id, [](auto*) { return Status::OK(); }, out);
}

// ---- Payload decoders -------------------------------------------------------

Result<RequestBatch> DecodeRequestPayload(const char* data, size_t len) {
  Reader r(data, len);
  const uint32_t count = r.U32();
  if (r.failed()) {
    return Status::InvalidArgument("request frame: truncated payload");
  }
  // The count comes straight off the wire — validate it against the bytes
  // actually present before reserving, or a 20-byte frame claiming 2^32-1
  // requests drives a multi-GB allocation. Each request encodes to at least
  // 9 bytes (u8 kind + u64 id).
  constexpr size_t kMinRequestBytes = 9;
  if (count > (len - 4) / kMinRequestBytes) {
    return Status::InvalidArgument(
        "request frame: count " + std::to_string(count) +
        " cannot fit in a " + std::to_string(len) + "-byte payload");
  }
  RequestBatch batch;
  batch.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Request req;
    const uint8_t kind = r.U8();
    if (kind > static_cast<uint8_t>(RequestKind::kDelete)) {
      return Status::InvalidArgument("request frame: unknown request kind " +
                                     std::to_string(kind));
    }
    req.kind = static_cast<RequestKind>(kind);
    req.id = r.U64();
    switch (req.kind) {
      case RequestKind::kInsert:
      case RequestKind::kUpdate:
        if (!ReadRow(&r, &req.row)) {
          return Status::InvalidArgument("request frame: malformed row");
        }
        break;
      case RequestKind::kGetProjected: {
        const uint16_t n = r.U16();
        req.projection.reserve(n);
        for (uint16_t c = 0; c < n; ++c) req.projection.push_back(r.U16());
        break;
      }
      case RequestKind::kGet:
      case RequestKind::kDelete:
        break;
    }
    if (r.failed()) {
      return Status::InvalidArgument("request frame: truncated payload");
    }
    batch.push_back(std::move(req));
  }
  if (r.failed()) {
    return Status::InvalidArgument("request frame: truncated payload");
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("request frame: trailing bytes");
  }
  return batch;
}

Result<BatchResult> DecodeResponsePayload(const char* data, size_t len) {
  Reader r(data, len);
  const uint32_t count = r.U32();
  if (r.failed()) {
    return Status::InvalidArgument("response frame: truncated payload");
  }
  // Same wire-controlled-count guard as DecodeRequestPayload. Each result
  // encodes to at least 8 bytes (u8 code + u16 msg_len + u32 shard +
  // u8 has_row).
  constexpr size_t kMinResultBytes = 8;
  if (count > (len - 4) / kMinResultBytes) {
    return Status::InvalidArgument(
        "response frame: count " + std::to_string(count) +
        " cannot fit in a " + std::to_string(len) + "-byte payload");
  }
  BatchResult result;
  result.results.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RequestResult rr;
    const uint8_t code = r.U8();
    if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
      return Status::InvalidArgument("response frame: unknown status code " +
                                     std::to_string(code));
    }
    const uint16_t msg_len = r.U16();
    if (code == static_cast<uint8_t>(StatusCode::kOk) && msg_len != 0) {
      return Status::InvalidArgument("response frame: OK status with a "
                                     "message");
    }
    std::string msg = r.Bytes(msg_len);
    rr.status = Status(static_cast<StatusCode>(code), std::move(msg));
    rr.shard = r.U32();
    // The encoder writes has_row = 1 only for a row of at least one column.
    const uint8_t has_row = r.U8();
    if (has_row > 1 ||
        (has_row == 1 && (!ReadRow(&r, &rr.row) || rr.row.empty()))) {
      return Status::InvalidArgument("response frame: malformed row");
    }
    if (r.failed()) {
      return Status::InvalidArgument("response frame: truncated payload");
    }
    result.results.push_back(std::move(rr));
  }
  if (r.failed()) {
    return Status::InvalidArgument("response frame: truncated payload");
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("response frame: trailing bytes");
  }
  return result;
}

// ---- Streaming decoder ------------------------------------------------------

void FrameDecoder::Append(const char* data, size_t len) {
  if (failed_) return;  // poisoned; connection is being torn down anyway
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, len);
}

FrameDecoder::Next FrameDecoder::Pop(Frame* out) {
  if (failed_) return Next::kError;
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return Next::kNeedMore;
  const char* h = buf_.data() + pos_;
  const uint32_t payload_len = DecodeFixed32(h);
  const uint8_t type = static_cast<uint8_t>(h[4]);
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kBusy)) {
    failed_ = true;
    error_ = "unknown frame type " + std::to_string(type);
    return Next::kError;
  }
  if (h[5] != 0 || h[6] != 0 || h[7] != 0) {
    failed_ = true;
    error_ = "nonzero reserved header bytes";
    return Next::kError;
  }
  if (type == static_cast<uint8_t>(FrameType::kBusy) && payload_len != 0) {
    failed_ = true;
    error_ = "busy frame with a payload";
    return Next::kError;
  }
  if (payload_len > max_payload_) {
    failed_ = true;
    error_ = "frame payload length " + std::to_string(payload_len) +
             " exceeds cap " + std::to_string(max_payload_);
    return Next::kError;
  }
  if (avail < kFrameHeaderBytes + payload_len) return Next::kNeedMore;
  out->type = static_cast<FrameType>(type);
  out->request_id = DecodeFixed64(h + 8);
  out->payload.assign(h + kFrameHeaderBytes, payload_len);
  pos_ += kFrameHeaderBytes + payload_len;
  return Next::kFrame;
}

}  // namespace nblb::net
