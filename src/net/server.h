// NetServer: the network serving front end — a nonblocking event-loop TCP
// server that owns client connections, reassembles the length-prefixed
// binary framing (net/wire.h), feeds decoded RequestBatches into
// ShardedEngine::Submit, and writes responses from completion callbacks
// without ever blocking the loop.
//
// Threading model (see src/net/README.md for the long version):
//
//   loop thread (one)                     engine worker (callback)
//   ─────────────────                     ────────────────────────
//   accept / recv / send                  engine ran the batch:
//   decode frames                           encode response frame
//   admission control                       (gets transcoded from
//   end of pass: engine->Submit(&burst)      their stored images)
//     ──────────────────────────────────▶   append to conn output queue
//                                           wake loop (eventfd)
//   drain woken conns' output  ◀──────────
//   to their sockets
//
// Each admitted frame joins a loop-owned burst, and every loop pass submits
// its burst at once (ShardedEngine::Submit(std::vector<Submission>*)), so
// each engine worker that got work is woken once per pass rather than once
// per frame. The frames ask for RowForm::kImage: a served get's tuple is
// checked and copied under its page's pin, and AppendResponseFrame
// transcodes it into the reply, so no Row is built, moved or freed.
//
// The loop thread is the only thread that touches sockets; completion
// callbacks only encode (CPU work off the loop) and append to a
// per-connection output queue under a small mutex. A callback runs on the
// engine worker that finished the batch, or on the loop thread inside
// Submit when the engine sheds every sub-batch kBusy. That single-writer
// discipline is what keeps the loop non-blocking and the whole structure
// TSan-clean.
//
// The loop is level-triggered epoll over nonblocking sockets. A flush hands
// up to kMaxSendFrames queued frames to one sendmsg, and completion
// callbacks wake the loop only when its pending-write list turns non-empty. A
// connection whose output is blocked (the peer is not reading) is watched
// for EPOLLOUT only: the loop stops reading it until its queue drains, so a
// client that never reads its replies cannot grow server memory.
//
// Admission control: two in-flight caps — per-connection and global — bound
// how many decoded frames may sit in the engine at once. A frame over
// either cap is shed immediately with a busy reply (FrameType::kBusy): the
// client sees an explicit kBusy instead of unbounded queueing, and the
// engine's own max_queue_depth/busy_fail_fast backstop turns shard-queue
// overflow into per-request kBusy statuses. A frame puts a sub-batch on
// every shard it touches, so a bounded engine's shard queues can fill, and
// shed per request, well before the global cap is reached. Start refuses
// an engine whose bounded queues block the submitter: a full shard queue
// would block the loop thread inside Submit.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/wire.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"

namespace nblb::net {

/// \brief Server configuration.
struct NetServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Bind address. The default serves loopback only — benches and tests;
  /// bind 0.0.0.0 explicitly to serve real traffic.
  std::string bind_address = "127.0.0.1";
  int listen_backlog = 128;
  /// Frames decoded but not yet answered, per connection. 0 = unlimited.
  /// The server-wide cap is derived from the engine: num_shards *
  /// max_queue_depth when the engine bounds its queues, else 1024. With
  /// frames that touch every shard, a shard queue fills at about
  /// max_queue_depth frames, before the server-wide cap, and the engine
  /// then sheds per request (see the file comment).
  size_t max_inflight_per_conn = 64;
  /// Per-frame payload cap handed to each connection's FrameDecoder.
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Idle-connection reaping: a connection with no socket activity (no
  /// bytes in or out), no in-flight engine batches, and no queued output
  /// for longer than this is closed by a periodic sweep — an abandoned
  /// client cannot pin a connection slot forever. 0 (default) disables the
  /// sweep.
  uint64_t idle_timeout_ms = 0;
};

/// \brief Owns the listening socket, the loop thread, and every connection.
/// Its counters are read through MetricsSnapshotNow() ("net.*").
class NetServer {
 public:
  /// \brief Binds, listens, sets up the epoll set, and starts the loop
  /// thread; IOError when any of them fails. InvalidArgument when the
  /// engine bounds its queues (max_queue_depth > 0) without
  /// busy_fail_fast. The engine must outlive the server.
  static Result<std::unique_ptr<NetServer>> Start(NetServerOptions options,
                                                  ShardedEngine* engine);

  /// \brief Stops accepting, waits for every in-flight engine batch to
  /// complete, then joins the loop thread and closes all sockets.
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// \brief The bound TCP port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  size_t open_connections() const {
    return open_conns_.load(std::memory_order_relaxed);
  }
  size_t inflight() const {
    return inflight_global_.load(std::memory_order_relaxed);
  }

  /// \brief One merged snapshot: this server's "net.*" metrics plus the
  /// engine's full document (engine./trace./shard<i>.*) — the whole serving
  /// stack, sockets to device, in one place.
  MetricsSnapshot MetricsSnapshotNow() const;
  std::string DumpMetrics() const { return MetricsSnapshotNow().ToJson(); }

 private:
  /// recv() chunk per call; the loop thread owns the one buffer.
  static constexpr size_t kRecvChunkBytes = 64 * 1024;
  /// Queued frames handed to one sendmsg.
  static constexpr size_t kMaxSendFrames = 64;

  /// Per-connection state. Sockets are touched only by the loop thread;
  /// completion callbacks reach `out_mu`-guarded output state and the
  /// atomics.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    FrameDecoder decoder;
    /// Frames submitted to the engine and not yet answered.
    std::atomic<uint32_t> inflight{0};
    /// Set by the loop when the connection dies; completion callbacks then
    /// drop their responses instead of queueing output.
    std::atomic<bool> closed{false};

    std::mutex out_mu;
    std::deque<std::string> outq;  // encoded frames awaiting send
    size_t out_off = 0;            // sent prefix of outq.front()

    /// Loop thread only. Output is blocked: the socket is watched for
    /// EPOLLOUT instead of EPOLLIN until the queue drains.
    bool want_write = false;
    /// Last socket activity (accept, bytes received, bytes sent).
    std::chrono::steady_clock::time_point last_activity;

    explicit Conn(size_t max_payload) : decoder(max_payload) {}
  };
  using ConnPtr = std::shared_ptr<Conn>;

  NetServer() = default;

  Status Listen();
  /// Creates the epoll set and registers the listen and wake fds.
  Status SetUpEpoll();
  void LoopMain();

  void AcceptReady();
  void HandleAccepted(int fd);
  /// Reads until EAGAIN, a short read, or blocked output.
  void ReadReady(const ConnPtr& conn);
  /// Decodes and dispatches every complete frame buffered on `conn`;
  /// returns false when the connection must be closed (protocol error).
  bool ProcessFrames(const ConnPtr& conn);
  /// Admission + decode for one request frame, which joins burst_; false
  /// on a malformed payload (close the connection).
  bool HandleRequestFrame(const ConnPtr& conn, Frame&& frame);
  /// Loop-thread side: appends an encoded frame and starts sending now.
  void EnqueueLoopSide(const ConnPtr& conn, std::string frame_bytes);
  /// Completion-thread side: appends an encoded frame and wakes the loop.
  void QueueOutput(const ConnPtr& conn, std::string frame_bytes);
  void WakeLoop();
  /// Sends queued output until empty or EAGAIN; on EAGAIN swaps the
  /// connection's interest to EPOLLOUT, and back to EPOLLIN once drained.
  void FlushConn(const ConnPtr& conn);
  void UpdateInterest(const ConnPtr& conn);
  void CloseConn(const ConnPtr& conn);

  /// Flushes every connection the completion callbacks marked as having
  /// fresh output; the loop calls it right after reading the wake eventfd.
  void DrainPendingWrites();

  /// Closes every connection idle longer than idle_timeout_ms (no socket
  /// activity, nothing in flight, nothing queued). Runs on the loop thread,
  /// paced by the epoll_wait timeout.
  void SweepIdleConns();

  NetServerOptions options_;
  ShardedEngine* engine_ = nullptr;
  size_t global_cap_ = 0;

  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  /// Idle sweep (idle_timeout_ms > 0): cadence and next-due stamp. Loop
  /// thread only.
  uint64_t sweep_interval_ms_ = 0;
  std::chrono::steady_clock::time_point next_sweep_{};

  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};

  uint64_t next_conn_id_ = 1;                    // loop-private
  std::unordered_map<uint64_t, ConnPtr> conns_;  // loop-private
  std::vector<char> recv_buf_;                   // loop-private
  /// Frames admitted this loop pass, submitted together at its end
  /// (loop-private; emptied by each Submit, capacity kept).
  std::vector<ShardedEngine::Submission> burst_;

  /// Connections with fresh completion output, awaiting a loop flush.
  std::mutex pending_mu_;
  std::vector<ConnPtr> pending_writes_;
  /// The list DrainPendingWrites swaps in and works through: loop-private
  /// and empty between drains, so both lists keep their capacity.
  std::vector<ConnPtr> draining_;

  std::atomic<size_t> open_conns_{0};
  std::atomic<size_t> inflight_global_{0};
  std::mutex drain_mu_;              // ~NetServer waits for inflight == 0
  std::condition_variable drain_cv_;

  // net.* counters (relaxed atomics; registry holds pointers only).
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> closes_{0};          ///< connections fully closed
  std::atomic<uint64_t> frames_in_{0};       ///< request frames decoded
  std::atomic<uint64_t> frames_out_{0};      ///< response + busy frames queued
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> decode_errors_{0};   ///< protocol violations
  std::atomic<uint64_t> busy_shed_{0};       ///< frames shed by admission
  std::atomic<uint64_t> responses_{0};       ///< engine completions answered
  std::atomic<uint64_t> idle_closed_{0};     ///< reaped by the idle sweep
  /// Decode-to-response-queued latency of every answered frame.
  LogHistogram reply_latency_us_;
  /// Requests per decoded frame.
  LogHistogram request_batch_size_;
  /// Declared after the counters it points into (destroyed first).
  std::unique_ptr<MetricsRegistry> metrics_;
};

}  // namespace nblb::net
