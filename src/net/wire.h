// Wire protocol for the network serving front end: a compact length-prefixed
// binary framing for RequestBatch / BatchResult, plus a streaming decoder
// that reassembles frames from arbitrary byte arrivals (TCP gives no message
// boundaries — a frame may arrive torn across many reads, or many frames in
// one read).
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     payload_len   bytes following the 16-byte header
//   4       1     type          FrameType (request / response / busy)
//   5       3     reserved      zero; a nonzero byte is a protocol error
//   8       8     request_id    client-chosen correlation id; responses may
//                               complete out of order on one connection, the
//                               id pairs them back up
//   16      payload_len bytes of payload
//
// Request payload:   u32 count, then per request: u8 kind, u64 id, then
//                    kind-specific: kInsert/kUpdate carry a row;
//                    kGetProjected carries u16 n + u16 column indexes.
// Response payload:  u32 count, then per result: u8 status code,
//                    u16 message length + message (empty for OK),
//                    u32 shard, u8 has_row, then the row if present.
// Busy payload:      empty (a busy frame with a payload is a protocol
//                    error). The server sheds a whole request frame with a
//                    busy reply when admission control rejects it; the
//                    client maps it back to per-request kBusy statuses.
//
// Rows are self-describing (u16 column count, then per column u8 TypeId and
// a type-tagged payload) rather than schema-relative: responses to projected
// gets carry rows of a different arity than the table schema, and keeping
// the wire layer schema-free means client and server only need to agree on
// the catalog types, not exchange schemas in-band.
//
// Robustness contract (exercised by tests/net_wire_test.cc and fuzzed by
// tests/net_wire_fuzz_test.cc): a decoder fed garbage, an oversized length
// prefix, a truncated payload, or a count field whose minimum encoding
// cannot fit in the payload reports a permanent error — the server closes
// the connection, because a byte stream that has lost framing cannot be
// resynchronized. Counts are validated against the payload length before
// any allocation is sized from them. The decoders accept only what the
// encoders write, so every accepted frame and payload re-encodes byte for
// byte: an integer outside its TypeId's range (a BOOL other than 0/1, a
// TIMESTAMP at or above 2^32), an OK status with a message, or a has_row
// byte other than 0/1 (or 1 with a zero-column row) is an error, never
// truncated into something valid.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "shard/request.h"

namespace nblb::net {

/// \brief Fixed frame header size on the wire.
constexpr size_t kFrameHeaderBytes = 16;

/// \brief Default cap on one frame's payload. A length prefix above the
/// decoder's cap is a protocol error (it is far more likely garbage or an
/// attack than a real 200-MiB batch), bounding per-connection memory.
constexpr size_t kDefaultMaxFramePayload = 8u << 20;  // 8 MiB

/// \brief Frame kinds. Values are wire format — keep them stable.
enum class FrameType : uint8_t {
  kRequest = 1,   ///< client -> server: one RequestBatch
  kResponse = 2,  ///< server -> client: the batch's results
  kBusy = 3,      ///< server -> client: admission control shed the frame
};

/// \brief One reassembled frame.
struct Frame {
  FrameType type = FrameType::kRequest;
  uint64_t request_id = 0;
  std::string payload;
};

// ---- Encoders (append to a wire buffer) -------------------------------------

/// \brief Appends a complete request frame for `batch`. Fails (leaving *out
/// untouched) if any count would overflow its wire integer — a batch above
/// 2^32-1 requests, a projection or row above 2^16-1 columns, or a string
/// above 2^32-1 bytes — rather than silently truncating the count.
Status AppendRequestFrame(uint64_t request_id, const RequestBatch& batch,
                          std::string* out);

/// \brief Appends a complete response frame for `result` (same overflow
/// contract as AppendRequestFrame). A result whose `image` is present
/// (RowForm::kImage) is transcoded from its stored image to exactly the
/// bytes its decoded Row would encode to, with no Row built; an image the
/// row decoder rejects fails the frame with that Corruption.
Status AppendResponseFrame(uint64_t request_id, const BatchResult& result,
                           std::string* out);

/// \brief Appends an empty busy frame (admission-control shed).
void AppendBusyFrame(uint64_t request_id, std::string* out);

// ---- Payload decoders -------------------------------------------------------

/// \brief Decodes a request payload; fails on truncation, trailing bytes,
/// unknown request kinds, or malformed rows.
Result<RequestBatch> DecodeRequestPayload(const char* data, size_t len);

/// \brief Decodes a response payload (same failure contract).
Result<BatchResult> DecodeResponsePayload(const char* data, size_t len);

// ---- Streaming decoder ------------------------------------------------------

/// \brief Reassembles frames from a byte stream. Feed arbitrary chunks with
/// Append, then Pop until it returns kNeedMore. Once kError is returned the
/// decoder is poisoned (framing is unrecoverable) and the connection must be
/// closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// \brief Appends `len` received bytes to the reassembly buffer.
  void Append(const char* data, size_t len);

  enum class Next : uint8_t {
    kFrame = 0,     ///< *out holds one complete frame
    kNeedMore = 1,  ///< no complete frame buffered yet
    kError = 2,     ///< protocol violation; see error()
  };

  /// \brief Extracts the next complete frame, validating the header.
  Next Pop(Frame* out);

  /// \brief Human-readable reason after Pop returned kError.
  const std::string& error() const { return error_; }

  /// \brief Bytes buffered but not yet consumed as frames.
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  size_t max_payload_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  bool failed_ = false;
  std::string error_;
};

}  // namespace nblb::net
