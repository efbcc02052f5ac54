#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/event_ring.h"

namespace nblb::net {

namespace {

// io_uring user_data encoding: (conn_id << 3) | tag. Conn ids start at 1,
// so the id-0 tag space is free for the singleton ops.
constexpr uint64_t kUdAccept = 0;  // tag 0, id 0
constexpr uint64_t kUdWake = 1;    // tag 1, id 0
constexpr uint64_t kUdCancel = 2;  // tag 2, id 0 (cancel ops themselves)
constexpr uint64_t kTagRecv = 3;
constexpr uint64_t kTagSend = 4;
constexpr uint64_t kUdTimer = 5;   // tag 5, id 0 (idle-sweep timerfd read)
constexpr unsigned kUdTagBits = 3;
constexpr uint64_t kUdTagMask = (1u << kUdTagBits) - 1;

uint64_t UdRecv(uint64_t conn_id) { return (conn_id << kUdTagBits) | kTagRecv; }
uint64_t UdSend(uint64_t conn_id) { return (conn_id << kUdTagBits) | kTagSend; }

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
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
  std::unique_ptr<NetServer> s(new NetServer());
  s->options_ = std::move(options);
  s->engine_ = engine;

  Status st = s->Listen();
  if (!st.ok()) return st;

  s->wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (s->wake_fd_ < 0) return Errno("eventfd");

  s->ResolveBackend();

  if (s->options_.idle_timeout_ms > 0) {
    // Sweep a few times per timeout so a connection is reaped within
    // ~1.25x the configured idle window, without a hot polling loop.
    s->sweep_interval_ms_ =
        std::max<uint64_t>(1, s->options_.idle_timeout_ms / 4);
    s->next_sweep_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(s->sweep_interval_ms_);
  }

  if (s->options_.max_inflight_global > 0) {
    s->global_cap_ = s->options_.max_inflight_global;
  } else {
    // Place the shed point exactly where the engine itself would start
    // failing batches, when it bounds its queues.
    const auto& eng = engine->options();
    s->global_cap_ = eng.max_queue_depth > 0
                         ? engine->num_shards() * eng.max_queue_depth
                         : 1024;
  }

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
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
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
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listen)");
  return Status::OK();
}

void NetServer::ResolveBackend() {
  IoBackend want = options_.io_backend;
  // Same override as DiskManager: force either path without a rebuild.
  if (const char* env = std::getenv("NBLB_IO_BACKEND")) {
    if (std::strcmp(env, "threads") == 0) {
      want = IoBackend::kThreads;
    } else if (std::strcmp(env, "uring") == 0) {
      want = IoBackend::kUring;
    } else if (std::strcmp(env, "auto") == 0) {
      want = IoBackend::kAuto;
    }
  }
  backend_in_use_ = IoBackend::kThreads;  // epoll
  if (want == IoBackend::kThreads) return;

  auto ring = IoRing::TryCreate(options_.io_queue_depth);
  if (ring == nullptr) {
    if (want == IoBackend::kUring) {
      std::fprintf(stderr,
                   "nblb: io_uring unavailable (seccomp/sysctl/kernel); "
                   "net server falling back to epoll\n");
    }
    return;
  }

  // Ring creation alone is not enough: IORING_OP_RECV needs kernel >= 5.6.
  // Probe a 1-byte recv over a socketpair — an unsupported opcode completes
  // immediately with -EINVAL, a supported one returns the byte.
  int sv[2] = {-1, -1};
  bool supported = false;
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0) {
    char ping = 'x';
    char pong = 0;
    if (::send(sv[1], &ping, 1, 0) == 1 && ring->PushRecv(sv[0], &pong, 1, 7) &&
        ring->Flush() == 0 && ring->WaitCqe() == 0) {
      IoRing::Cqe cqe;
      supported = ring->Reap(&cqe, 1) == 1 && cqe.res == 1 && pong == 'x';
    }
    ::close(sv[0]);
    ::close(sv[1]);
  }
  if (!supported) {
    if (want == IoBackend::kUring) {
      std::fprintf(stderr,
                   "nblb: io_uring socket ops unsupported (kernel < 5.6?); "
                   "net server falling back to epoll\n");
    }
    return;
  }
  ring_ = std::move(ring);
  backend_in_use_ = IoBackend::kUring;
}

// ---- Shutdown ---------------------------------------------------------------

NetServer::~NetServer() {
  stopping_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
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
  ring_.reset();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

// ---- Shared state machine ---------------------------------------------------

void NetServer::LoopMain() {
  if (backend_in_use_ == IoBackend::kUring) {
    UringLoop();
  } else {
    EpollLoop();
  }
}

void NetServer::HandleAccepted(int fd) {
  SetNoDelay(fd);
  if (backend_in_use_ != IoBackend::kUring && !SetNonBlocking(fd)) {
    ::close(fd);
    return;
  }
  auto conn = std::make_shared<Conn>(options_.max_frame_payload);
  conn->id = next_conn_id_++;
  conn->fd = fd;
  conn->rchunk.resize(options_.recv_chunk_bytes);
  conn->last_activity = std::chrono::steady_clock::now();
  conns_[conn->id] = conn;
  open_conns_.fetch_add(1, std::memory_order_relaxed);
  accepts_.fetch_add(1, std::memory_order_relaxed);
  if (backend_in_use_ == IoBackend::kUring) {
    UringArmRecv(conn);
  } else {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      EpollCloseConn(conn);
    }
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
      (global_cap_ > 0 && global >= global_cap_)) {
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
  engine_->Submit(
      std::move(decoded).ValueOrDie(),
      [this, c, request_id, start](const BatchResult& result) {
        // Completion thread: encode off the loop, enqueue, wake the loop.
        // A dead connection just drops the response — the decrementing
        // below is what matters for drain correctness. Encoding can only
        // fail on counts the decoded request already bounded, but if it
        // somehow does, dropping the reply beats writing a desynced frame.
        std::string out;
        const bool reply = !c->closed.load(std::memory_order_acquire) &&
                           AppendResponseFrame(request_id, result, &out).ok();
        // Record and count before enqueueing: once the client can observe
        // the reply on the wire, the latency histogram and
        // stats().responses must already include it.
        reply_latency_us_.Record(MicrosSince(start));
        if (reply) {
          responses_.fetch_add(1, std::memory_order_relaxed);
          QueueOutput(c, std::move(out));
        }
        c->inflight.fetch_sub(1, std::memory_order_relaxed);
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
      });
  return true;
}

void NetServer::EnqueueLoopSide(const ConnPtr& conn, std::string frame_bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->outq.push_back(std::move(frame_bytes));
  }
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  if (backend_in_use_ == IoBackend::kUring) {
    UringStartSend(conn);
  } else {
    EpollFlushConn(conn);
  }
}

void NetServer::QueueOutput(const ConnPtr& conn, std::string frame_bytes) {
  // Count before the push: the loop may flush the queue (for an earlier
  // write-readiness event) the moment the frame lands in it.
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->outq.push_back(std::move(frame_bytes));
  }
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_writes_.push_back(conn);
  }
  WakeLoop();
}

void NetServer::WakeLoop() {
  const uint64_t one = 1;
  // EAGAIN (counter saturated) still leaves the eventfd readable; other
  // failures only cost latency until the next wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void NetServer::DrainPendingWrites() {
  std::vector<ConnPtr> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending.swap(pending_writes_);
  }
  for (const ConnPtr& conn : pending) {
    if (conn->closed.load(std::memory_order_relaxed)) continue;
    if (backend_in_use_ == IoBackend::kUring) {
      UringStartSend(conn);
    } else {
      EpollFlushConn(conn);
    }
  }
}

void NetServer::SweepIdleConns() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  // Collect first: closing mutates conns_.
  std::vector<ConnPtr> victims;
  for (auto& [id, conn] : conns_) {
    if (conn->closed.load(std::memory_order_relaxed) || conn->closing) {
      continue;
    }
    // "Idle" means truly quiescent: a connection with batches still in the
    // engine, or with output queued/being sent, is working — the activity
    // stamp only tracks socket bytes, so these guards keep a slow-reading
    // but live client from being reaped mid-response.
    if (conn->inflight.load(std::memory_order_relaxed) > 0) continue;
    if (conn->send_pending || conn->want_write) continue;
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
    if (backend_in_use_ == IoBackend::kUring) {
      UringCloseConn(conn);
    } else {
      EpollCloseConn(conn);
    }
  }
}

// ---- epoll backend ----------------------------------------------------------

namespace {
constexpr uint64_t kEpollListenId = ~uint64_t{0};
constexpr uint64_t kEpollWakeId = ~uint64_t{0} - 1;
}  // namespace

void NetServer::EpollLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return;  // nothing can be served; dtor still drains

  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kEpollListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kEpollWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

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
      if (id == kEpollListenId) {
        EpollAcceptReady();
        continue;
      }
      if (id == kEpollWakeId) {
        uint64_t v = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &v, sizeof(v));
        DrainPendingWrites();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      ConnPtr conn = it->second;
      if ((flags & (EPOLLHUP | EPOLLERR)) != 0) {
        EpollCloseConn(conn);
        continue;
      }
      if ((flags & EPOLLIN) != 0) EpollReadReady(conn);
      if ((flags & EPOLLOUT) != 0 &&
          !conn->closed.load(std::memory_order_relaxed)) {
        EpollFlushConn(conn);
      }
    }
  }

  // Close every connection before the fds go away; completion callbacks
  // still in flight will see closed == true and drop their output.
  std::vector<ConnPtr> remaining;
  remaining.reserve(conns_.size());
  for (auto& [id, conn] : conns_) remaining.push_back(conn);
  for (const ConnPtr& conn : remaining) EpollCloseConn(conn);
  ::close(epoll_fd_);
  epoll_fd_ = -1;
}

void NetServer::EpollAcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EMFILE and friends: stop accepting this round
    }
    HandleAccepted(fd);
  }
}

void NetServer::EpollReadReady(const ConnPtr& conn) {
  for (;;) {
    const ssize_t n =
        ::recv(conn->fd, conn->rchunk.data(), conn->rchunk.size(), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn->last_activity = std::chrono::steady_clock::now();
      conn->decoder.Append(conn->rchunk.data(), static_cast<size_t>(n));
      if (!ProcessFrames(conn)) {
        EpollCloseConn(conn);
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly peer shutdown
      EpollCloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    EpollCloseConn(conn);
    return;
  }
}

void NetServer::EpollFlushConn(const ConnPtr& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  for (;;) {
    // The deque front stays stable while we send: only the loop thread
    // pops, completion threads only push_back.
    std::string* front = nullptr;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (!conn->outq.empty()) front = &conn->outq.front();
    }
    if (front == nullptr) {
      if (conn->want_write) {
        conn->want_write = false;
        EpollUpdateInterest(conn);
      }
      return;
    }
    const ssize_t n =
        ::send(conn->fd, front->data() + conn->out_off,
               front->size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn->last_activity = std::chrono::steady_clock::now();
      conn->out_off += static_cast<size_t>(n);
      if (conn->out_off == front->size()) {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        conn->outq.pop_front();
        conn->out_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        EpollUpdateInterest(conn);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    EpollCloseConn(conn);
    return;
  }
}

void NetServer::EpollUpdateInterest(const ConnPtr& conn) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events =
      EPOLLIN | (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::EpollCloseConn(const ConnPtr& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  conns_.erase(conn->id);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  closes_.fetch_add(1, std::memory_order_relaxed);
}

// ---- io_uring backend -------------------------------------------------------

bool NetServer::UringPush(const std::function<bool()>& push) {
  if (push()) return true;
  ring_->Flush();  // SQ full: submit what's queued to free slots
  return push();
}

void NetServer::UringLoop() {
  wake_iov_.iov_base = &wake_buf_;
  wake_iov_.iov_len = sizeof(wake_buf_);

  // Idle sweep: WaitCqe has no timeout variant, so the periodic tick is a
  // timerfd read through the ring itself — same re-arm discipline as the
  // wake eventfd. If timerfd creation fails the sweep is silently off.
  if (sweep_interval_ms_ > 0) {
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
    if (timer_fd_ >= 0) {
      struct itimerspec its;
      std::memset(&its, 0, sizeof(its));
      its.it_interval.tv_sec =
          static_cast<time_t>(sweep_interval_ms_ / 1000);
      its.it_interval.tv_nsec =
          static_cast<long>((sweep_interval_ms_ % 1000) * 1000000);
      its.it_value = its.it_interval;
      if (::timerfd_settime(timer_fd_, 0, &its, nullptr) != 0) {
        ::close(timer_fd_);
        timer_fd_ = -1;
      }
    }
    timer_iov_.iov_base = &timer_buf_;
    timer_iov_.iov_len = sizeof(timer_buf_);
  }

  std::vector<IoRing::Cqe> cqes(128);
  while (!stopping_.load(std::memory_order_acquire)) {
    // Arm (and re-arm) the singleton ops at the top of every iteration
    // rather than only from their completion handlers: if a push fails
    // against a full SQ, the next pass retries. A permanently un-armed
    // wake read would let an idle loop block in WaitCqe with no way for
    // WakeLoop (or the destructor) to ever wake it.
    if (!accept_pending_) {
      accept_pending_ = UringPush([&] {
        return ring_->PushAccept(listen_fd_, kUdAccept);
      });
    }
    if (!wake_pending_) {
      wake_pending_ = UringPush([&] {
        return ring_->PushReadv(wake_fd_, &wake_iov_, 1, 0, kUdWake);
      });
    }
    if (timer_fd_ >= 0 && !timer_pending_) {
      timer_pending_ = UringPush([&] {
        return ring_->PushReadv(timer_fd_, &timer_iov_, 1, 0, kUdTimer);
      });
    }
    if (ring_->Flush() != 0) break;
    if (ring_->WaitCqe() != 0) break;
    size_t n;
    while ((n = ring_->Reap(cqes.data(), cqes.size())) > 0) {
      for (size_t i = 0; i < n; ++i) {
        const uint64_t ud = cqes[i].user_data;
        const int32_t res = cqes[i].res;
        if (ud == kUdAccept) {
          // Re-armed at the top of the next loop iteration.
          accept_pending_ = false;
          if (res >= 0) {
            if (stopping_.load(std::memory_order_acquire)) {
              ::close(res);  // raced accept during shutdown
            } else {
              HandleAccepted(res);
            }
          }
          continue;
        }
        if (ud == kUdWake) {
          wake_pending_ = false;  // re-armed at the top of the next iteration
          continue;
        }
        if (ud == kUdTimer) {
          timer_pending_ = false;  // re-armed at the top of the next iteration
          SweepIdleConns();
          continue;
        }
        if (ud == kUdCancel) continue;  // cancel op's own completion

        auto it = conns_.find(ud >> kUdTagBits);
        if (it == conns_.end()) continue;
        ConnPtr conn = it->second;
        const uint64_t tag = ud & kUdTagMask;
        if (tag == kTagRecv) {
          conn->recv_pending = false;
          if (conn->closing) {
            UringReapConnIfDone(conn);
            continue;
          }
          if (res <= 0) {
            UringCloseConn(conn);
            continue;
          }
          bytes_in_.fetch_add(static_cast<uint64_t>(res),
                              std::memory_order_relaxed);
          conn->last_activity = std::chrono::steady_clock::now();
          conn->decoder.Append(conn->rchunk.data(), static_cast<size_t>(res));
          if (!ProcessFrames(conn)) {
            UringCloseConn(conn);
            continue;
          }
          UringArmRecv(conn);
        } else if (tag == kTagSend) {
          conn->send_pending = false;
          if (conn->closing) {
            UringReapConnIfDone(conn);
            continue;
          }
          if (res < 0) {
            UringCloseConn(conn);
            continue;
          }
          bytes_out_.fetch_add(static_cast<uint64_t>(res),
                               std::memory_order_relaxed);
          conn->last_activity = std::chrono::steady_clock::now();
          conn->out_off += static_cast<size_t>(res);
          if (conn->out_off < conn->sending.size()) {
            // Partial send: put the remainder back in flight. If even the
            // post-Flush retry cannot get an SQE, close the connection —
            // leaving it open would strand a truncated frame on the wire.
            conn->send_pending = UringPush([&] {
              return ring_->PushSend(
                  conn->fd, conn->sending.data() + conn->out_off,
                  static_cast<unsigned>(conn->sending.size() - conn->out_off),
                  UdSend(conn->id));
            });
            if (!conn->send_pending) UringCloseConn(conn);
          } else {
            conn->sending.clear();
            conn->out_off = 0;
            UringStartSend(conn);  // next queued frame, if any
          }
        }
      }
    }
    DrainPendingWrites();
  }

  // Shutdown drain: in-flight ops reference per-connection buffers, so every
  // op must complete before the Conn objects can be torn down. shutdown()
  // forces pending RECV/SEND completions (io_uring holds a file reference,
  // so close() alone would not); ASYNC_CANCEL retires the ACCEPT and the
  // wake read.
  std::vector<ConnPtr> remaining;
  remaining.reserve(conns_.size());
  for (auto& [id, conn] : conns_) remaining.push_back(conn);
  for (const ConnPtr& conn : remaining) {
    conn->closed.store(true, std::memory_order_release);
    conn->closing = true;
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  if (accept_pending_) {
    UringPush([&] { return ring_->PushCancel(kUdAccept, kUdCancel); });
  }
  if (wake_pending_) {
    UringPush([&] { return ring_->PushCancel(kUdWake, kUdCancel); });
  }
  if (timer_pending_) {
    UringPush([&] { return ring_->PushCancel(kUdTimer, kUdCancel); });
  }
  auto ops_pending = [&] {
    if (accept_pending_ || wake_pending_ || timer_pending_) return true;
    for (auto& [id, conn] : conns_) {
      if (conn->recv_pending || conn->send_pending) return true;
    }
    return false;
  };
  while (ops_pending()) {
    if (ring_->Flush() != 0) break;
    if (ring_->WaitCqe() != 0) break;
    size_t n;
    while ((n = ring_->Reap(cqes.data(), cqes.size())) > 0) {
      for (size_t i = 0; i < n; ++i) {
        const uint64_t ud = cqes[i].user_data;
        if (ud == kUdAccept) {
          accept_pending_ = false;
          if (cqes[i].res >= 0) ::close(cqes[i].res);  // raced accept
        } else if (ud == kUdWake) {
          wake_pending_ = false;
        } else if (ud == kUdTimer) {
          timer_pending_ = false;
        } else if (ud != kUdCancel) {
          auto it = conns_.find(ud >> kUdTagBits);
          if (it == conns_.end()) continue;
          if ((ud & kUdTagMask) == kTagRecv) it->second->recv_pending = false;
          if ((ud & kUdTagMask) == kTagSend) it->second->send_pending = false;
        }
      }
    }
  }
  for (const ConnPtr& conn : remaining) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
    closes_.fetch_add(1, std::memory_order_relaxed);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.clear();
  if (timer_fd_ >= 0) {
    ::close(timer_fd_);
    timer_fd_ = -1;
  }
}

void NetServer::UringArmRecv(const ConnPtr& conn) {
  if (conn->recv_pending || conn->closing) return;
  conn->recv_pending = UringPush([&] {
    return ring_->PushRecv(conn->fd, conn->rchunk.data(),
                           static_cast<unsigned>(conn->rchunk.size()),
                           UdRecv(conn->id));
  });
  if (!conn->recv_pending) UringCloseConn(conn);  // SQ hopelessly full
}

void NetServer::UringStartSend(const ConnPtr& conn) {
  if (conn->send_pending || conn->closing ||
      conn->closed.load(std::memory_order_relaxed)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->outq.empty()) return;
    // Coalesce everything queued into one SEND: fewer ops, and the op owns
    // a loop-private buffer so completion threads never race the send.
    conn->sending.clear();
    for (std::string& s : conn->outq) conn->sending.append(s);
    conn->outq.clear();
  }
  conn->out_off = 0;
  conn->send_pending = UringPush([&] {
    return ring_->PushSend(conn->fd, conn->sending.data(),
                           static_cast<unsigned>(conn->sending.size()),
                           UdSend(conn->id));
  });
  if (!conn->send_pending) UringCloseConn(conn);
}

void NetServer::UringCloseConn(const ConnPtr& conn) {
  if (conn->closing) return;
  conn->closing = true;
  conn->closed.store(true, std::memory_order_release);
  // Wake any ops still in flight on this socket; the fd closes (and the
  // conn leaves the map) once they have all completed.
  ::shutdown(conn->fd, SHUT_RDWR);
  UringReapConnIfDone(conn);
}

void NetServer::UringReapConnIfDone(const ConnPtr& conn) {
  if (conn->recv_pending || conn->send_pending) return;
  ::close(conn->fd);
  conn->fd = -1;
  conns_.erase(conn->id);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  closes_.fetch_add(1, std::memory_order_relaxed);
}

// ---- Stats ------------------------------------------------------------------

NetStatsSnapshot NetServer::stats() const {
  NetStatsSnapshot s;
  s.accepts = accepts_.load(std::memory_order_relaxed);
  s.closes = closes_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.busy_shed = busy_shed_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  return s;
}

MetricsSnapshot NetServer::MetricsSnapshotNow() const {
  MetricsSnapshot snap = metrics_->Snapshot();
  snap.Merge(engine_->MetricsSnapshotNow(), "");
  return snap;
}

}  // namespace nblb::net
