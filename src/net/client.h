// NetClient: a small blocking client for the NetServer wire protocol.
//
// One TCP connection, pipelined: Send() writes a request frame and returns
// its request id immediately, Wait(id) reads frames until that id's
// response arrives. Responses may complete out of order on the wire (the
// engine's workers finish batches in any order); Wait buffers whatever
// else arrives and hands it out when its id is asked for. Call() is the
// synchronous convenience (Send + Wait).
//
// A busy frame (the server's admission-control shed, FrameType::kBusy) is
// surfaced as a normal BatchResult whose every request carries
// Status::Busy — callers see exactly the same shape as engine-side
// fail-fast rejection, just decided one layer earlier.
//
// Not thread safe: one NetClient per thread (the bench drives N connections
// with N threads). The socket is blocking; Wait blocks until the response
// (or a transport error) arrives.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/wire.h"
#include "shard/request.h"

namespace nblb::net {

class NetClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Frame payload cap for the response decoder.
    size_t max_frame_payload = kDefaultMaxFramePayload;
  };

  static Result<std::unique_ptr<NetClient>> Connect(const Options& options);

  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// \brief Encodes and writes one request frame; returns its request id.
  /// Does not wait for the response — pipeline by sending several, then
  /// Wait() for each.
  Result<uint64_t> Send(const RequestBatch& batch);

  /// \brief Blocks until `request_id`'s response (or busy) frame arrives,
  /// buffering any other responses that arrive first. Each id can be waited
  /// on once.
  Result<BatchResult> Wait(uint64_t request_id);

  /// \brief Send + Wait.
  Result<BatchResult> Call(const RequestBatch& batch);

  /// \brief Writes raw bytes to the socket — protocol-robustness tests use
  /// this to feed the server torn frames and garbage.
  Status SendRaw(const void* data, size_t len);

  /// \brief Number of sent-but-not-yet-waited requests.
  size_t outstanding() const { return pending_sizes_.size(); }

  int fd() const { return fd_; }

 private:
  NetClient() = default;

  int fd_ = -1;
  uint64_t next_id_ = 1;
  FrameDecoder decoder_{kDefaultMaxFramePayload};
  std::vector<char> rbuf_;
  /// Request id -> batch size, for synthesizing busy results.
  std::unordered_map<uint64_t, size_t> pending_sizes_;
  /// Responses that arrived while waiting for a different id.
  std::unordered_map<uint64_t, BatchResult> ready_;
};

}  // namespace nblb::net
