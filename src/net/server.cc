#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/event_ring.h"

namespace nblb::net {

namespace {

// epoll user data of the two singleton fds; connections use their id,
// which counts up from 1.
constexpr uint64_t kListenId = ~uint64_t{0};
constexpr uint64_t kWakeId = ~uint64_t{0} - 1;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

// ---- Startup ----------------------------------------------------------------

Result<std::unique_ptr<NetServer>> NetServer::Start(NetServerOptions options,
                                                    ShardedEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("NetServer requires an engine");
  }
  const ShardedEngineOptions& eng = engine->options();
  if (eng.max_queue_depth > 0 && !eng.busy_fail_fast) {
    // A full shard queue would block the loop thread inside Submit, and
    // with it every connection.
    return Status::InvalidArgument(
        "NetServer needs an engine whose bounded queues fail fast "
        "(busy_fail_fast), not one that blocks the submitter");
  }
  std::unique_ptr<NetServer> s(new NetServer());
  s->options_ = std::move(options);
  s->engine_ = engine;

  Status st = s->Listen();
  if (!st.ok()) return st;

  s->wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (s->wake_fd_ < 0) return Errno("eventfd");

  st = s->SetUpEpoll();
  if (!st.ok()) return st;

  if (s->options_.idle_timeout_ms > 0) {
    // Sweep a few times per timeout so a connection is reaped within
    // ~1.25x the configured idle window, without a hot polling loop.
    s->sweep_interval_ms_ =
        std::max<uint64_t>(1, s->options_.idle_timeout_ms / 4);
    s->next_sweep_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(s->sweep_interval_ms_);
  }

  // num_shards x max_queue_depth frames when the engine bounds its queues.
  // This is not where the engine starts shedding: a frame puts one
  // sub-batch on every shard it touches. On four shards a 16-get frame
  // touches all four about 96% of the time, so a shard queue fills at
  // about max_queue_depth waiting frames, a quarter of this cap, and the
  // engine sheds the overflow as per-request kBusy.
  s->global_cap_ = eng.max_queue_depth > 0
                       ? engine->num_shards() * eng.max_queue_depth
                       : 1024;
  s->recv_buf_.resize(kRecvChunkBytes);

  s->metrics_ = std::make_unique<MetricsRegistry>();
  MetricsRegistry* reg = s->metrics_.get();
  reg->RegisterCounter("net.accepts", &s->accepts_);
  reg->RegisterCounter("net.closes", &s->closes_);
  reg->RegisterCounter("net.frames_in", &s->frames_in_);
  reg->RegisterCounter("net.frames_out", &s->frames_out_);
  reg->RegisterCounter("net.bytes_in", &s->bytes_in_);
  reg->RegisterCounter("net.bytes_out", &s->bytes_out_);
  reg->RegisterCounter("net.decode_errors", &s->decode_errors_);
  reg->RegisterCounter("net.busy_shed", &s->busy_shed_);
  reg->RegisterCounter("net.responses", &s->responses_);
  reg->RegisterCounter("net.idle_closed", &s->idle_closed_);
  NetServer* self = s.get();
  reg->RegisterGauge("net.open_connections", [self] {
    return static_cast<double>(self->open_connections());
  });
  reg->RegisterGauge("net.inflight", [self] {
    return static_cast<double>(self->inflight());
  });
  reg->RegisterHistogram("net.reply_latency_us", &s->reply_latency_us_);
  reg->RegisterHistogram("net.batch_requests", &s->request_batch_size_);

  s->loop_thread_ = std::thread([self] { self->LoopMain(); });
  return s;
}

Status NetServer::Listen() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + options_.bind_address + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    return Errno("listen");
  }
  struct sockaddr_in bound;
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &blen) != 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status NetServer::SetUpEpoll() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(eventfd)");
  }
  return Status::OK();
}

// ---- Shutdown ---------------------------------------------------------------

NetServer::~NetServer() {
  stopping_.store(true, std::memory_order_release);
  if (loop_thread_.joinable()) {
    WakeLoop();
    loop_thread_.join();
  }
  // The loop closed every connection on exit, so completion callbacks for
  // still-running batches drop their responses — but every callback still
  // decrements the in-flight count, so waiting here guarantees no ticket
  // outlives the server (and that `this` stays valid for the callbacks).
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] {
      return inflight_global_.load(std::memory_order_acquire) == 0;
    });
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

// ---- Event loop -------------------------------------------------------------

void NetServer::LoopMain() {
  pthread_setname_np(pthread_self(), "nblb-net");
  std::vector<struct epoll_event> events(128);
  // With the idle sweep enabled the wait gets a finite timeout so the loop
  // periodically regains control even with no socket activity at all.
  const int wait_ms = sweep_interval_ms_ > 0
                          ? static_cast<int>(sweep_interval_ms_)
                          : -1;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (sweep_interval_ms_ > 0 &&
        std::chrono::steady_clock::now() >= next_sweep_) {
      SweepIdleConns();
      next_sweep_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(sweep_interval_ms_);
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t flags = events[i].events;
      if (id == kListenId) {
        AcceptReady();
        continue;
      }
      if (id == kWakeId) {
        uint64_t v = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &v, sizeof(v));
        DrainPendingWrites();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      ConnPtr conn = it->second;
      if ((flags & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((flags & EPOLLIN) != 0) ReadReady(conn);
      if ((flags & EPOLLOUT) != 0) FlushConn(conn);
    }
    // The frames this pass decoded go to the engine together, so each
    // worker that got work is woken once per pass. Always before stopping_
    // is read again: the destructor's drain waits on frames counted in
    // flight at admission.
    if (!burst_.empty()) engine_->Submit(&burst_);
  }

  // Close every connection before the fds go away; completion callbacks
  // still in flight will see closed == true and drop their output.
  std::vector<ConnPtr> remaining;
  remaining.reserve(conns_.size());
  for (auto& [id, conn] : conns_) remaining.push_back(conn);
  for (const ConnPtr& conn : remaining) CloseConn(conn);
}

void NetServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EMFILE and friends: stop accepting this round
    }
    HandleAccepted(fd);
  }
}

void NetServer::HandleAccepted(int fd) {
  SetNoDelay(fd);
  auto conn = std::make_shared<Conn>(options_.max_frame_payload);
  conn->id = next_conn_id_++;
  conn->fd = fd;
  conn->last_activity = std::chrono::steady_clock::now();
  conns_[conn->id] = conn;
  open_conns_.fetch_add(1, std::memory_order_relaxed);
  accepts_.fetch_add(1, std::memory_order_relaxed);
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) CloseConn(conn);
}

void NetServer::ReadReady(const ConnPtr& conn) {
  // Blocked output ends the read loop: the replies to what is read now
  // could only queue behind the ones the peer is not taking.
  while (!conn->want_write && !conn->closed.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(conn->fd, recv_buf_.data(), recv_buf_.size(), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn->last_activity = std::chrono::steady_clock::now();
      conn->decoder.Append(recv_buf_.data(), static_cast<size_t>(n));
      if (!ProcessFrames(conn)) {
        CloseConn(conn);
        return;
      }
      // A short read drained the socket; level-triggered epoll reports it
      // again if more bytes arrive, so skip the recv that would only
      // return EAGAIN.
      if (static_cast<size_t>(n) < recv_buf_.size()) return;
      continue;
    }
    if (n == 0) {  // orderly peer shutdown
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
}

bool NetServer::ProcessFrames(const ConnPtr& conn) {
  Frame frame;
  for (;;) {
    const FrameDecoder::Next next = conn->decoder.Pop(&frame);
    if (next == FrameDecoder::Next::kNeedMore) return true;
    if (next == FrameDecoder::Next::kError) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      RecordFlightEvent(FlightEvent::kNetDecodeError, conn->id);
      return false;
    }
    if (frame.type != FrameType::kRequest) {
      // Response/busy frames only flow server -> client.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      RecordFlightEvent(FlightEvent::kNetDecodeError, conn->id);
      return false;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    if (!HandleRequestFrame(conn, std::move(frame))) return false;
  }
}

bool NetServer::HandleRequestFrame(const ConnPtr& conn, Frame&& frame) {
  const uint64_t request_id = frame.request_id;

  const uint32_t per = conn->inflight.load(std::memory_order_relaxed);
  const size_t global = inflight_global_.load(std::memory_order_relaxed);
  if ((options_.max_inflight_per_conn > 0 &&
       per >= options_.max_inflight_per_conn) ||
      global >= global_cap_) {
    busy_shed_.fetch_add(1, std::memory_order_relaxed);
    RecordFlightEvent(FlightEvent::kNetShed, conn->id, per);
    std::string busy;
    AppendBusyFrame(request_id, &busy);
    EnqueueLoopSide(conn, std::move(busy));
    return true;  // shed, but the connection stays healthy
  }

  Result<RequestBatch> decoded =
      DecodeRequestPayload(frame.payload.data(), frame.payload.size());
  if (!decoded.ok()) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    RecordFlightEvent(FlightEvent::kNetDecodeError, conn->id);
    return false;
  }
  request_batch_size_.Record(decoded->size());

  conn->inflight.fetch_add(1, std::memory_order_relaxed);
  inflight_global_.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  ConnPtr c = conn;
  // Submitted with the rest of this loop pass's frames (LoopMain). Gets
  // come back as stored images, which the encoder transcodes.
  burst_.push_back(ShardedEngine::Submission{
      std::move(decoded).ValueOrDie(),
      [this, c, request_id, start](const BatchResult& result) {
        // Engine worker (or this loop thread, when the engine shed every
        // sub-batch kBusy inside Submit): encode, enqueue, wake the loop.
        // A dead connection just drops the response — the decrementing
        // below is what matters for drain correctness. Encoding fails only
        // on counts the decoded request already bounded or on an image
        // the worker already checked, but if it somehow does, dropping the
        // reply beats writing a desynced frame.
        std::string out;
        const bool reply = !c->closed.load(std::memory_order_acquire) &&
                           AppendResponseFrame(request_id, result, &out).ok();
        // Record, count and release the connection's in-flight slot before
        // enqueueing: once the client can observe the reply on the wire,
        // the latency histogram and the net.responses counter must already
        // include it, and a next frame sent on reading it must not be shed
        // for a slot this reply still held. (The loop takes the reply
        // under the connection's out_mu, so its next admission check sees
        // the decrement.)
        reply_latency_us_.Record(MicrosSince(start));
        c->inflight.fetch_sub(1, std::memory_order_relaxed);
        if (reply) {
          responses_.fetch_add(1, std::memory_order_relaxed);
          QueueOutput(c, std::move(out));
        }
        {
          // The final decrement must happen while holding drain_mu_: the
          // destructor's wait predicate reads inflight_global_ only under
          // the mutex, so it cannot observe zero — and destroy the mutex
          // and condvar — until this callback has released it, by which
          // point the callback no longer touches `this`.
          std::lock_guard<std::mutex> lock(drain_mu_);
          if (inflight_global_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            drain_cv_.notify_all();
          }
        }
      },
      RowForm::kImage});
  return true;
}

void NetServer::EnqueueLoopSide(const ConnPtr& conn, std::string frame_bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->outq.push_back(std::move(frame_bytes));
  }
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  // Blocked output goes out on the connection's EPOLLOUT instead.
  if (!conn->want_write) FlushConn(conn);
}

void NetServer::QueueOutput(const ConnPtr& conn, std::string frame_bytes) {
  // Count before the push: the loop may flush the queue (for an earlier
  // write-readiness event) the moment the frame lands in it.
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->outq.push_back(std::move(frame_bytes));
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    // Only the first entry after a drain wakes the loop; later ones ride
    // the same wake, since the loop reads the eventfd before it takes the
    // list.
    wake = pending_writes_.empty();
    pending_writes_.push_back(conn);
  }
  if (wake) WakeLoop();
}

void NetServer::WakeLoop() {
  const uint64_t one = 1;
  // EAGAIN (counter saturated) still leaves the eventfd readable; other
  // failures only cost latency until the next wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void NetServer::DrainPendingWrites() {
  // Swap with the loop's empty spare, so both vectors keep their capacity:
  // the next QueueOutput pushes without reallocating.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    draining_.swap(pending_writes_);
  }
  for (const ConnPtr& conn : draining_) {
    if (!conn->want_write) FlushConn(conn);
  }
  draining_.clear();
}

void NetServer::FlushConn(const ConnPtr& conn) {
  struct iovec iov[kMaxSendFrames] = {};
  while (!conn->closed.load(std::memory_order_relaxed)) {
    // Gather up to kMaxSendFrames queued frames. Their bytes stay put while
    // we send: only the loop thread pops, and completion callbacks only
    // push_back, which never moves existing deque elements.
    size_t n_iov = 0;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      for (const std::string& frame : conn->outq) {
        const size_t off = n_iov == 0 ? conn->out_off : 0;
        iov[n_iov].iov_base = const_cast<char*>(frame.data()) + off;
        iov[n_iov].iov_len = frame.size() - off;
        if (++n_iov == kMaxSendFrames) break;
      }
    }
    if (n_iov == 0) {
      if (conn->want_write) {
        conn->want_write = false;
        UpdateInterest(conn);
      }
      return;
    }
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn->last_activity = std::chrono::steady_clock::now();
      size_t sent = static_cast<size_t>(n);
      std::lock_guard<std::mutex> lock(conn->out_mu);
      while (sent > 0) {
        const size_t left = conn->outq.front().size() - conn->out_off;
        if (sent < left) {
          conn->out_off += sent;
          break;
        }
        sent -= left;
        conn->outq.pop_front();
        conn->out_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        UpdateInterest(conn);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
}

void NetServer::UpdateInterest(const ConnPtr& conn) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = conn->want_write ? EPOLLOUT : EPOLLIN;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::CloseConn(const ConnPtr& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  conns_.erase(conn->id);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  closes_.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::SweepIdleConns() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  // Collect first: closing mutates conns_.
  std::vector<ConnPtr> victims;
  for (auto& [id, conn] : conns_) {
    // "Idle" means truly quiescent: a connection with batches still in the
    // engine, or with output queued/being sent, is working — the activity
    // stamp only tracks socket bytes, so these guards keep a slow-reading
    // but live client from being reaped mid-response.
    if (conn->inflight.load(std::memory_order_relaxed) > 0) continue;
    if (conn->want_write) continue;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (!conn->outq.empty()) continue;
    }
    if (now - conn->last_activity >= limit) victims.push_back(conn);
  }
  for (const ConnPtr& conn : victims) {
    const uint64_t idle_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - conn->last_activity)
            .count());
    RecordFlightEvent(FlightEvent::kNetIdleClose, conn->id, idle_ms);
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(conn);
  }
}

// ---- Metrics ----------------------------------------------------------------

MetricsSnapshot NetServer::MetricsSnapshotNow() const {
  MetricsSnapshot snap = metrics_->Snapshot();
  snap.Merge(engine_->MetricsSnapshotNow(), "");
  return snap;
}

}  // namespace nblb::net
