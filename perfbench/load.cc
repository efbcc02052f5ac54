// Load generator: inputs from the seed, an oracle for every result, and the
// open- and closed-loop drivers over the real wire protocol.
//
// Each generator thread owns one nonblocking connection and speaks the
// framing of net/wire.h directly: a completion is timestamped the moment its
// bytes are decoded, whatever order responses arrive in, and a slow response
// never delays the next scheduled send. (NetClient::Wait blocks on one id,
// which would put head-of-line blocking into open-loop timings.)

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "net/wire.h"

namespace nblb::perfbench {

// ---- Dataset ----------------------------------------------------------------

namespace {

WikipediaScale Scale(uint64_t seed, uint64_t rows) {
  WikipediaScale s;
  s.num_pages = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(rows) / kRevisionsPerPage));
  s.revisions_per_page = kRevisionsPerPage;
  s.seed = seed;
  return s;
}

}  // namespace

Dataset::Dataset(uint64_t seed, uint64_t rows, size_t trace_keys)
    : synth_(Scale(seed, rows)), rows_(&synth_.revisions()) {
  if (trace_keys > 0) {
    trace_ = synth_.RevisionLookupTrace(trace_keys, kHotReadShare);
  }
}

Row Dataset::RowAt(uint64_t key, uint32_t version) const {
  Row row = Loaded(key);
  row[kVersionColumn] = Value::Int64(row[kVersionColumn].AsInt() + version);
  return row;
}

// ---- Oracle -----------------------------------------------------------------

Oracle::Oracle(const Dataset* data)
    : data_(data),
      sent_(new std::atomic<uint32_t>[data->rows() + 1]),
      acked_(new std::atomic<uint32_t>[data->rows() + 1]) {
  for (uint64_t k = 0; k <= data->rows(); ++k) {
    sent_[k].store(0, std::memory_order_relaxed);
    acked_[k].store(0, std::memory_order_relaxed);
  }
}

void Oracle::NoteSent(uint64_t key, uint32_t version) {
  sent_[key].store(version, std::memory_order_release);
}

void Oracle::NoteAcked(uint64_t key, uint32_t version) {
  if (version > acked_[key].load(std::memory_order_relaxed)) {
    acked_[key].store(version, std::memory_order_release);
  }
}

bool Oracle::Check(uint64_t key, const Row& row, uint32_t lo,
                   uint32_t hi) const {
  const Row& loaded = data_->Loaded(key);
  if (row.size() != loaded.size()) return false;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != kVersionColumn && !(row[i] == loaded[i])) return false;
  }
  const int64_t v =
      row[kVersionColumn].AsInt() - loaded[kVersionColumn].AsInt();
  return v >= static_cast<int64_t>(lo) && v <= static_cast<int64_t>(hi);
}

// ---- Frames -----------------------------------------------------------------

FrameFactory::FrameFactory(uint64_t seed, const Dataset* data)
    : seed_(seed),
      data_(data),
      next_version_(data->rows() + 1, 0),
      next_request_id_(kConns, 1) {}

PhaseFrames FrameFactory::Make(size_t frames_per_conn, double put_share) {
  PhaseFrames phase(kConns);
  for (uint32_t c = 0; c < kConns; ++c) {
    Rng rng(SplitMix64(seed_ * 1000003 + ++stream_));
    FrameList& list = phase[c];
    list.resize(frames_per_conn);
    for (FrameSpec& f : list) {
      f.request_id = next_request_id_[c]++;
      f.put = put_share > 0 && rng.NextDouble() < put_share;
      RequestBatch batch;
      batch.reserve(kFrameOps);
      for (size_t i = 0; i < kFrameOps; ++i) {
        uint64_t key = data_->TraceKey(next_read_++);
        if (f.put) {
          // Puts to a key come from one connection only: its version
          // sequence is then ordered by that connection's frame order.
          while (key % kConns != c) key = data_->TraceKey(next_read_++);
          const uint32_t version = ++next_version_[key];
          Row row = data_->RowAt(key, version);
          f.payload_bytes += PayloadBytes(row);
          f.versions.push_back(version);
          batch.push_back(Request::Update(key, std::move(row)));
        } else {
          batch.push_back(Request::Get(key));
        }
        f.keys.push_back(static_cast<uint32_t>(key));
      }
      Status s = net::AppendRequestFrame(f.request_id, batch, &f.wire);
      if (!s.ok()) {
        std::fprintf(stderr, "encode: %s\n", s.ToString().c_str());
        std::abort();
      }
    }
  }
  return phase;
}

// ---- Connection -------------------------------------------------------------

namespace {

/// One nonblocking loopback connection speaking the net/wire.h framing.
class Conn {
 public:
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
  }

  void Queue(const std::string& bytes) { out_.append(bytes); }
  bool want_write() const { return off_ < out_.size(); }

  /// Sends as much queued output as the socket takes.
  bool Flush() {
    while (off_ < out_.size()) {
      const ssize_t n =
          ::send(fd_, out_.data() + off_, out_.size() - off_, MSG_NOSIGNAL);
      if (n > 0) {
        off_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (off_ == out_.size()) {
      out_.clear();
      off_ = 0;
    }
    return true;
  }

  /// Waits up to `timeout_s` for the socket, then sends and receives what
  /// it can. Complete frames land in *frames.
  bool Pump(double timeout_s, std::vector<net::Frame>* frames) {
    pollfd p{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)),
             0};
    timespec ts;
    timeout_s = std::max(0.0, timeout_s);
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - ts.tv_sec) * 1e9);
    const int r = ::ppoll(&p, 1, &ts, nullptr);
    if (r < 0 && errno != EINTR) return false;
    if (r <= 0) return true;
    if (p.revents & (POLLERR | POLLNVAL)) return false;
    if ((p.revents & POLLOUT) && !Flush()) return false;
    if (p.revents & (POLLIN | POLLHUP)) {
      for (;;) {
        const ssize_t n = ::recv(fd_, buf_, sizeof(buf_), 0);
        if (n > 0) {
          decoder_.Append(buf_, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) return false;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      net::Frame frame;
      for (;;) {
        const auto next = decoder_.Pop(&frame);
        if (next == net::FrameDecoder::Next::kError) return false;
        if (next == net::FrameDecoder::Next::kNeedMore) break;
        frames->push_back(std::move(frame));
      }
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string out_;
  size_t off_ = 0;
  net::FrameDecoder decoder_;
  char buf_[64 * 1024];
};

/// Per-connection driver state shared by both loop shapes.
struct Driver {
  const FrameList* frames = nullptr;
  Oracle* oracle = nullptr;
  PhaseResult result;
  std::vector<double> sent_at;     // the time each frame's latency counts from
  std::vector<uint32_t> lo;        // get frames: acked versions at send
  std::vector<uint8_t> done;
  size_t outstanding = 0;
  bool keep_sample = true;

  void Init(const FrameList& list, Oracle* o) {
    frames = &list;
    oracle = o;
    sent_at.assign(list.size(), 0);
    lo.assign(list.size() * kFrameOps, 0);
    done.assign(list.size(), 0);
  }

  void Send(Conn* conn, size_t i, double counted_from) {
    const FrameSpec& f = (*frames)[i];
    if (f.put) {
      for (size_t j = 0; j < f.keys.size(); ++j) {
        oracle->NoteSent(f.keys[j], f.versions[j]);
      }
    } else {
      for (size_t j = 0; j < f.keys.size(); ++j) {
        lo[i * kFrameOps + j] = oracle->acked(f.keys[j]);
      }
    }
    sent_at[i] = counted_from;
    conn->Queue(f.wire);
    ++outstanding;
    result.attempted += f.keys.size();
  }

  /// Checks one response against the oracle; returns ops acked OK.
  uint64_t Complete(net::Frame&& frame, double now) {
    const FrameSpec& first = frames->front();
    if (frame.request_id < first.request_id ||
        frame.request_id - first.request_id >= frames->size()) {
      ++result.failed;
      return 0;
    }
    const size_t i = frame.request_id - first.request_id;
    if (done[i]) {
      ++result.failed;
      return 0;
    }
    done[i] = 1;
    --outstanding;
    const FrameSpec& f = (*frames)[i];
    const double ms = (now - sent_at[i]) * 1e3;
    (f.put ? result.put_ms : result.get_ms).push_back(ms);
    (f.put ? result.put_t : result.get_t).push_back(sent_at[i]);
    result.frame_ms.push_back(ms);
    if (frame.type != net::FrameType::kResponse) {  // busy: shed by the server
      result.failed += f.keys.size();
      return 0;
    }
    auto decoded =
        net::DecodeResponsePayload(frame.payload.data(), frame.payload.size());
    if (!decoded.ok() || decoded->results.size() != f.keys.size()) {
      result.failed += f.keys.size();
      return 0;
    }
    uint64_t ok = 0;
    for (size_t j = 0; j < f.keys.size(); ++j) {
      const RequestResult& r = decoded->results[j];
      const uint32_t key = f.keys[j];
      bool good = r.status.ok();
      if (good && f.put) {
        oracle->NoteAcked(key, f.versions[j]);
      } else if (good) {
        good = oracle->Check(key, r.row, lo[i * kFrameOps + j],
                             oracle->sent(key));
        if (!good) ++result.wrong;
      }
      if (good) {
        ++ok;
      } else {
        ++result.failed;
      }
    }
    if (ok == f.keys.size()) result.ok_done_t.push_back(now);
    if (f.put && ok == f.keys.size()) result.put_payload_bytes += f.payload_bytes;
    if (!f.put && keep_sample) {
      keep_sample = false;
      result.sample_result = std::move(*decoded);
      for (uint32_t key : f.keys) result.sample_request.push_back(Request::Get(key));
    }
    result.ok += ok;
    return ok;
  }

  /// Counts frames that never got a response as failed.
  void Abandon() {
    for (size_t i = 0; i < done.size(); ++i) {
      if (sent_at[i] != 0 && !done[i]) {
        result.failed += (*frames)[i].keys.size();
        result.drained = false;
      }
    }
  }
};

constexpr double kDrainTimeoutS = 5.0;

PhaseResult Merge(std::vector<Driver>& drivers, double start, double seconds) {
  PhaseResult total;
  total.start = start;
  total.seconds = seconds;
  for (Driver& d : drivers) {
    PhaseResult& r = d.result;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&total.get_ms, r.get_ms);
    append(&total.put_ms, r.put_ms);
    append(&total.get_t, r.get_t);
    append(&total.put_t, r.put_t);
    append(&total.lag_ms, r.lag_ms);
    append(&total.frame_ms, r.frame_ms);
    append(&total.ok_done_t, r.ok_done_t);
    total.attempted += r.attempted;
    total.ok += r.ok;
    total.failed += r.failed;
    total.wrong += r.wrong;
    total.put_payload_bytes += r.put_payload_bytes;
    total.drained &= r.drained;
    if (total.sample_request.empty() && !r.sample_request.empty()) {
      total.sample_request = r.sample_request;
      total.sample_result = r.sample_result;
    }
  }
  return total;
}

}  // namespace

PhaseResult RunOpenLoop(uint16_t port, const PhaseFrames& frames,
                        double rate_ops, double seconds, Oracle* oracle) {
  const double interval = kConns * kFrameOps / rate_ops;  // per connection
  const size_t n = static_cast<size_t>(seconds / interval);
  std::vector<Driver> drivers(kConns);
  const double t0 = Now() + 0.02;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      // Wake at the scheduled send time, not up to the default 50 us slack
      // later: the lateness would count in every frame's latency.
      ::prctl(PR_SET_TIMERSLACK, 1UL);
      Driver& d = drivers[c];
      d.Init(frames[c], oracle);
      Conn conn;
      if (!conn.Connect(port) || frames[c].size() < n) {
        d.result.failed += n * kFrameOps;
        d.result.attempted += n * kFrameOps;
        d.result.drained = false;
        return;
      }
      const double offset = interval * c / kConns;
      auto sched = [&](size_t i) { return t0 + offset + i * interval; };
      std::vector<net::Frame> got;
      size_t next = 0;
      bool ok = true;
      for (;;) {
        double now = Now();
        while (next < n && sched(next) <= now) {
          d.result.lag_ms.push_back((now - sched(next)) * 1e3);
          d.Send(&conn, next, sched(next));
          ++next;
        }
        if (conn.want_write() && !conn.Flush()) {
          ok = false;
          break;
        }
        if (next == n && d.outstanding == 0) break;
        if (next == n && now > sched(n - 1) + kDrainTimeoutS) break;
        const double wait =
            next < n ? sched(next) - now : sched(n - 1) + kDrainTimeoutS - now;
        got.clear();
        if (!conn.Pump(wait, &got)) {
          ok = false;
          break;
        }
        now = Now();
        for (net::Frame& f : got) d.Complete(std::move(f), now);
      }
      if (!ok) d.result.drained = false;
      d.Abandon();
    });
  }
  for (auto& t : threads) t.join();
  return Merge(drivers, t0, seconds);
}

PhaseResult RunClosedLoop(uint16_t port, const PhaseFrames& frames,
                          uint32_t depth, double seconds, Oracle* oracle) {
  std::vector<Driver> drivers(kConns);
  std::vector<double> exhausted(kConns, 0);
  const double start = Now();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      Driver& d = drivers[c];
      d.Init(frames[c], oracle);
      Conn conn;
      if (!conn.Connect(port)) {
        d.result.failed += kFrameOps;
        d.result.attempted += kFrameOps;
        d.result.drained = false;
        return;
      }
      const size_t n = frames[c].size();
      std::vector<net::Frame> got;
      size_t next = 0;
      bool ok = true;
      double now = Now();
      for (;;) {
        // A connection whose inputs run out (a machine faster than
        // max_sat_ops assumed) stops sending, and the measured window of
        // the whole phase ends there.
        if (now < deadline && next == n && exhausted[c] == 0) exhausted[c] = now;
        const bool sending = now < deadline && next < n;
        while (sending && d.outstanding < depth && next < n) {
          d.Send(&conn, next, now);
          ++next;
        }
        if (conn.want_write() && !conn.Flush()) {
          ok = false;
          break;
        }
        if (!sending && d.outstanding == 0) break;
        if (now > deadline + kDrainTimeoutS) break;
        got.clear();
        if (!conn.Pump(sending ? deadline - now : 0.05, &got)) {
          ok = false;
          break;
        }
        now = Now();
        for (net::Frame& f : got) d.Complete(std::move(f), now);
      }
      if (!ok) d.result.drained = false;
      d.Abandon();
    });
  }
  for (auto& t : threads) t.join();
  double window = seconds;
  for (double e : exhausted) {
    if (e > 0) window = std::min(window, e - start);
  }
  return Merge(drivers, start, window);
}

double MedianWindowRate(const PhaseResult& r, double window_s) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(r.seconds / window_s + 1e-9));
  std::vector<double> frames(windows, 0);
  const double span = r.seconds / windows;
  for (double t : r.ok_done_t) {
    const double at = t - r.start;
    if (at >= 0 && at < r.seconds) frames[static_cast<size_t>(at / span)] += 1;
  }
  for (double& f : frames) f *= kFrameOps / span;
  return Summarize(std::move(frames)).median;
}

}  // namespace nblb::perfbench
