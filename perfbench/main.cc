// perfbench: the repository's serving benchmark.
//
// One run = one workload, one seed. The parent process forks the server
// process (engine + NetServer; its setup is timed), builds the generator's
// inputs from the seed (Wikipedia revision rows and the paper's
// revision-read trace, from workload/wikipedia.h), and drives the server
// over loopback TCP with kConns generator threads:
//
//   warm-up    closed loop, discarded
//   saturation closed loop, kConns x kDepth frames outstanding -> server CPU
//              per op (and the printed goodput)
//   latency    open loop at the workload's fixed offered rate -> get frame
//              p50 (p99 and put latencies printed), timed from each frame's
//              scheduled send time
//   put probe  open loop of put frames (workloads without puts only)
//   kill -9    the server dies; every put it acked must read back
//   recovery   a crash image built from the seed (rows, clean close, a fixed
//              tail of put frames, exit) is reopened several times, timed to
//              the first correct Get (printed)
//
// With --trace=1 the same run also times calls into each layer from this
// code (in-process engine phases in the server process, a standalone shard,
// the wire codec, the recovery steps) and prints the per-layer table.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Any wrong result makes the process exit non-zero.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "net/server.h"
#include "net/wire.h"
#include "storage/superblock.h"
#include "storage/wal.h"
#include "workload/wikipedia.h"

namespace nblb::perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t PayloadBytes(const Row& row) {
  uint64_t bytes = 0;
  for (const Value& v : row) {
    const TypeId t = v.type();
    bytes += (t == TypeId::kVarchar || t == TypeId::kChar) ? v.AsString().size()
                                                           : 8;
  }
  return bytes;
}

std::string EnginePrefix(const std::string& dir) { return dir + "/engine"; }

std::vector<std::string> ShardFiles(const std::string& prefix, uint32_t shard) {
  const std::string db = prefix + ".shard" + std::to_string(shard) + ".db";
  return {db, Superblock::PathFor(db), Wal::PathFor(db)};
}

ShardedEngineOptions EngineOptions(const std::string& prefix, bool truncate) {
  ShardedEngineOptions o;
  o.num_shards = kShards;
  o.num_workers = kWorkers;
  o.path_prefix = prefix;
  o.truncate_on_open = truncate;
  o.page_size = kPageSize;
  o.buffer_pool_frames_per_shard = kPoolFramesPerShard;
  // Buffered data files: on a shared virtual disk, O_DIRECT miss latency
  // swings several-fold between runs and buries any code change; buffered
  // misses still go through DiskManager and the async read path.
  o.direct_io = false;
  o.flusher_interval_us = kFlusherIntervalUs;
  o.max_queue_depth = kMaxQueueDepth;
  o.busy_fail_fast = true;  // required behind a NetServer
  o.wal_enabled = true;
  o.checkpoint_every_groups = kCheckpointEveryGroups;
  o.schema = WikipediaSynthesizer::RevisionSchema();
  o.table_options.key_columns = {0};
  return o;
}

Summary Summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  auto q = [&xs](double p) {
    const size_t i = std::min(
        xs.size() - 1, static_cast<size_t>(std::ceil(p * xs.size())) - 1);
    return xs[p <= 0 ? 0 : i];
  };
  double sum = 0;
  for (double x : xs) sum += x;
  s.mean = sum / xs.size();
  s.median = xs.size() % 2 ? xs[xs.size() / 2]
                           : (xs[xs.size() / 2 - 1] + xs[xs.size() / 2]) / 2;
  s.p99 = q(0.99);
  for (double pct : {0.999, 0.99, 0.9, 0.5}) {
    if ((1 - pct) * xs.size() >= 10 || pct == 0.5) {
      s.high = q(pct);
      s.high_pct = pct * 100;
      break;
    }
  }
  return s;
}

bool BacklogGrew(const PhaseResult& r) {
  std::vector<std::pair<double, double>> frames;
  for (size_t i = 0; i < r.get_ms.size(); ++i) frames.push_back({r.get_t[i], r.get_ms[i]});
  for (size_t i = 0; i < r.put_ms.size(); ++i) frames.push_back({r.put_t[i], r.put_ms[i]});
  if (frames.size() < 20) return false;
  std::sort(frames.begin(), frames.end());
  const size_t tenth = frames.size() / 10;
  std::vector<double> first, last;
  for (size_t i = 0; i < tenth; ++i) {
    first.push_back(frames[i].second);
    last.push_back(frames[frames.size() - 1 - i].second);
  }
  return Summarize(std::move(last)).median >
         2 * Summarize(std::move(first)).median + 1.0;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d = after;
  for (auto& [name, v] : d) {
    auto it = before.find(name);
    if (it != before.end() && name != "rusage.maxrss_kb") v -= it->second;
  }
  return d;
}

double Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

namespace {

// ---- Flags ------------------------------------------------------------------

bool Flag(int argc, char** argv, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      *out = argv[i] + prefix.size();
      return true;
    }
  }
  return false;
}

double NumFlag(int argc, char** argv, const char* name) {
  std::string v;
  if (!Flag(argc, argv, name, &v)) {
    std::fprintf(stderr, "missing --%s\n", name);
    std::exit(2);
  }
  return std::strtod(v.c_str(), nullptr);
}

Config ParseFlags(int argc, char** argv) {
  Config c;
  if (!Flag(argc, argv, "workload", &c.workload) ||
      !Flag(argc, argv, "dir", &c.dir)) {
    std::fprintf(stderr, "missing --workload or --dir\n");
    std::exit(2);
  }
  c.seed = static_cast<uint64_t>(NumFlag(argc, argv, "seed"));
  c.seconds = NumFlag(argc, argv, "seconds");
  c.trace = NumFlag(argc, argv, "trace") != 0;
  c.rows = static_cast<uint64_t>(NumFlag(argc, argv, "rows"));
  c.put_share = NumFlag(argc, argv, "put_share");
  c.rate_ops = NumFlag(argc, argv, "rate_ops");
  c.max_sat_ops = NumFlag(argc, argv, "max_sat_ops");
  if (c.rows < kRevisionsPerPage || c.rate_ops <= 0 || c.max_sat_ops <= 0 ||
      c.seconds <= 0 || c.put_share < 0 || c.put_share > 1) {
    std::fprintf(stderr, "bad workload parameters\n");
    std::exit(2);
  }
  return c;
}

// ---- Phase layout -----------------------------------------------------------

/// Saturation goodput is the median over slices of this length.
constexpr double kRateWindowS = 0.25;

/// Shares of --seconds spent in each measured phase.
struct Plan {
  double warm_s, sat_s, open_s, probe_s, polled_s, inproc_sat_s, inproc_open_s;
  explicit Plan(const Config& c)
      : warm_s(0.05 * c.seconds),
        sat_s(0.25 * c.seconds),
        open_s(0.45 * c.seconds),
        probe_s(c.put_share > 0 ? 0 : 0.1 * c.seconds),
        polled_s(c.trace ? 0.15 * c.seconds : 0),
        inproc_sat_s(0.1 * c.seconds),
        inproc_open_s(0.15 * c.seconds) {}
};

size_t FramesFor(double ops_s, double seconds) {
  return static_cast<size_t>(std::ceil(ops_s * seconds / kFrameOps / kConns)) +
         2;
}

/// The generator's inputs, built from the seed once the server is up and
/// idle. The server process builds its own, so its memory holds only what
/// it serves.
struct Inputs {
  PhaseFrames warm, sat, open, open_polled, probe, tail;
};

Inputs BuildInputs(const Config& c, const Plan& plan, FrameFactory* f) {
  Inputs in;
  in.warm = f->Make(FramesFor(c.max_sat_ops, plan.warm_s), c.put_share);
  in.sat = f->Make(FramesFor(c.max_sat_ops, plan.sat_s), c.put_share);
  in.open = f->Make(FramesFor(c.rate_ops, plan.open_s), c.put_share);
  if (c.trace) {
    in.open_polled = f->Make(FramesFor(c.rate_ops, plan.polled_s), c.put_share);
  }
  if (plan.probe_s > 0) {
    in.probe = f->Make(FramesFor(kProbePutOps, plan.probe_s), 1.0);
  }
  in.tail = f->Make(kTailFrames / kConns, 1.0);
  return in;
}

// ---- Server process ---------------------------------------------------------

void RemoveEngineFiles(const std::string& prefix) {
  for (uint32_t s = 0; s < kShards; ++s) {
    for (const std::string& f : ShardFiles(prefix, s)) std::remove(f.c_str());
  }
}

Counters ServerCounters(const net::NetServer& server) {
  Counters c;
  const MetricsSnapshot snap = server.MetricsSnapshotNow();
  for (const auto& [name, v] : snap.counters) {
    std::string key = name;
    if (key.rfind("shard", 0) == 0) {
      const size_t dot = key.find('.');
      const bool per_shard =
          dot != std::string::npos && dot > 5 &&
          std::all_of(key.begin() + 5, key.begin() + dot,
                      [](char ch) { return ch >= '0' && ch <= '9'; });
      if (per_shard) key = key.substr(dot + 1);
    }
    c[key] += static_cast<double>(v);
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  c["rusage.utime_us"] = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec;
  c["rusage.stime_us"] = ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
  c["rusage.maxrss_kb"] = static_cast<double>(ru.ru_maxrss);
  return c;
}

std::vector<RequestBatch> DecodeFrames(const PhaseFrames& phase) {
  std::vector<RequestBatch> out;
  for (const FrameList& list : phase) {
    for (const FrameSpec& f : list) {
      auto b = net::DecodeRequestPayload(f.wire.data() + net::kFrameHeaderBytes,
                                         f.wire.size() - net::kFrameHeaderBytes);
      if (b.ok()) out.push_back(std::move(*b));
    }
  }
  return out;
}

/// In-process phases on the serving engine, through SubmitRef: the engine
/// without sockets, framing or the loop thread.
struct InprocResult {
  std::vector<double> frame_ms;
  std::vector<double> submit_us;
  uint64_t ok = 0;
  uint64_t failed = 0;
  double seconds = 0;
};

InprocResult RunInproc(ShardedEngine* engine,
                       const std::vector<RequestBatch>& batches,
                       double rate_ops, uint32_t outstanding_cap,
                       double seconds) {
  InprocResult r;
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;
  std::vector<double> done_at(batches.size(), 0);
  std::vector<double> due(batches.size(), 0);
  std::atomic<uint64_t> ok{0}, failed{0};
  const double interval = rate_ops > 0 ? kFrameOps / rate_ops : 0;
  const double t0 = Now();
  size_t sent = 0;
  for (; sent < batches.size(); ++sent) {
    double now = Now();
    if (now - t0 >= seconds) break;
    if (rate_ops > 0) {
      due[sent] = t0 + sent * interval;
      if (due[sent] > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due[sent] - now));
      }
    } else {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return outstanding < outstanding_cap; });
      due[sent] = Now();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      ++outstanding;
    }
    const double s0 = Now();
    engine->SubmitRef(batches[sent], [&, sent](const BatchResult& br) {
      const double t = Now();
      for (const RequestResult& rr : br.results) {
        (rr.status.ok() ? ok : failed).fetch_add(1, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lk(mu);
      done_at[sent] = t;
      --outstanding;
      cv.notify_all();
    });
    r.submit_us.push_back((Now() - s0) * 1e6);
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return outstanding == 0; });
  }
  r.seconds = Now() - t0;
  for (size_t i = 0; i < sent; ++i) {
    r.frame_ms.push_back((done_at[i] - due[i]) * 1e3);
  }
  r.ok = ok.load();
  r.failed = failed.load();
  return r;
}

void WriteCounters(FILE* out, const Counters& c) {
  for (const auto& [name, v] : c) std::fprintf(out, "%s %.17g\n", name.c_str(), v);
  std::fprintf(out, "end\n");
  std::fflush(out);
}

/// Rows per bulk-load batch: one group commit (one fdatasync) per shard per
/// batch. With 512-row batches most of a set-up's wall time was fdatasync.
constexpr uint64_t kLoadBatch = 8192;

std::vector<RequestBatch> BuildLoad(const Dataset& data) {
  std::vector<RequestBatch> load;
  for (uint64_t k = 1; k <= data.rows(); k += kLoadBatch) {
    RequestBatch b;
    for (uint64_t key = k; key < std::min(data.rows() + 1, k + kLoadBatch);
         ++key) {
      b.push_back(Request::Insert(key, data.Loaded(key)));
    }
    load.push_back(std::move(b));
  }
  return load;
}

/// Crash-image builder process: loads the rows and closes the engine (a
/// clean close checkpoints), reopens it, executes `tail` one frame at a time,
/// then exits without closing anything. Recovery then walks the whole heap,
/// rebuilds the index and replays exactly the tail.
bool BuildCrashImage(const Dataset& data, const std::string& prefix,
                     const PhaseFrames& tail) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const std::vector<RequestBatch> load = BuildLoad(data);
    const std::vector<RequestBatch> puts = DecodeFrames(tail);
    RemoveEngineFiles(prefix);
    for (const auto* batches : {&load, &puts}) {
      auto e = ShardedEngine::Open(EngineOptions(prefix, batches == &load));
      if (!e.ok()) _exit(3);
      for (const RequestBatch& b : *batches) {
        if (!(*e)->Execute(b).all_ok()) _exit(3);
      }
      if (batches == &puts) _exit(0);  // no close: the files are a crash image
    }
    _exit(3);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Median cost of one set-up over the timed repetitions.
struct SetupTimes {
  double cpu_s = 0;   // process CPU time, all threads (setup_s)
  double wall_s = 0;  // elapsed time (printed)
  size_t reps = 0;
};

/// Set-up as setup_s measures it: engine open, bulk load and server start,
/// until the first frame can be served. Exits the process on any failure.
void SetUp(const std::string& prefix, const std::vector<RequestBatch>& load,
           std::unique_ptr<ShardedEngine>* engine,
           std::unique_ptr<net::NetServer>* server) {
  auto e = ShardedEngine::Open(EngineOptions(prefix, true));
  if (!e.ok()) {
    std::fprintf(stderr, "engine open: %s\n", e.status().ToString().c_str());
    _exit(3);
  }
  *engine = std::move(*e);
  for (const RequestBatch& b : load) {
    if (!(*engine)->Execute(b).all_ok()) {
      std::fprintf(stderr, "load failed\n");
      _exit(3);
    }
  }
  net::NetServerOptions server_options;
  server_options.max_inflight_per_conn = kMaxInflightPerConn;
  auto s = net::NetServer::Start(server_options, engine->get());
  if (!s.ok()) {
    std::fprintf(stderr, "server start: %s\n", s.status().ToString().c_str());
    _exit(3);
  }
  *server = std::move(*s);
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runs SetUp at least kSetupReps times and for at least kSetupSeconds, in
/// a child process so that the repetitions' allocations stay out of the
/// serving process's peak RSS.
SetupTimes TimeSetUps(const std::string& prefix,
                      const std::vector<RequestBatch>& load) {
  int fds[2];
  if (::pipe(fds) != 0) _exit(3);
  const pid_t pid = ::fork();
  if (pid < 0) _exit(3);
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    std::unique_ptr<ShardedEngine> engine;
    std::unique_ptr<net::NetServer> server;
    std::vector<double> cpu, wall;
    const double start = Now();
    while (cpu.size() < kSetupReps || Now() - start < kSetupSeconds) {
      server.reset();
      engine.reset();
      RemoveEngineFiles(prefix);
      const double c0 = ProcessCpuSeconds();
      const double t0 = Now();
      SetUp(prefix, load, &engine, &server);
      wall.push_back(Now() - t0);
      cpu.push_back(ProcessCpuSeconds() - c0);
    }
    FILE* out = ::fdopen(fds[1], "w");
    std::fprintf(out, "%.17g %.17g %zu\n", Summarize(cpu).median,
                 Summarize(wall).median, cpu.size());
    std::fflush(out);
    _exit(0);
  }
  ::close(fds[1]);
  FILE* in = ::fdopen(fds[0], "r");
  SetupTimes t;
  const bool got =
      std::fscanf(in, "%lf %lf %zu", &t.cpu_s, &t.wall_s, &t.reps) == 3;
  std::fclose(in);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !got) {
    std::fprintf(stderr, "timed set-ups failed\n");
    _exit(3);
  }
  return t;
}

/// The server process: timed set-ups, its own set-up, then answers control
/// commands until the parent kills it.
[[noreturn]] void ServerMain(const Config& c, const Plan& plan, FILE* cmd,
                             FILE* reply) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  const std::string prefix = EnginePrefix(c.dir);
  const Dataset data(c.seed, c.rows, c.trace ? kTraceKeys : 0);
  std::vector<RequestBatch> load = BuildLoad(data);
  const SetupTimes setup = TimeSetUps(prefix, load);
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<net::NetServer> server;
  RemoveEngineFiles(prefix);
  SetUp(prefix, load, &engine, &server);
  load.clear();
  load.shrink_to_fit();
  std::fprintf(reply, "ready %u %.17g %.17g %zu\n", server->port(),
               setup.cpu_s, setup.wall_s, setup.reps);
  std::fflush(reply);

  // Traced runs: get-only frames for the in-process phases (gets leave
  // every version as the generator's oracle knows it).
  std::vector<RequestBatch> inproc_sat, inproc_open;
  if (c.trace) {
    FrameFactory f(c.seed, &data);
    inproc_sat = DecodeFrames(
        f.Make(FramesFor(c.max_sat_ops, plan.inproc_sat_s), 0.0));
    inproc_open =
        DecodeFrames(f.Make(FramesFor(c.rate_ops, plan.inproc_open_s), 0.0));
  }
  char line[256];
  while (std::fgets(line, sizeof(line), cmd) != nullptr) {
    char what[32] = {0};
    double a = 0, b = 0;
    std::sscanf(line, "%31s %lf %lf", what, &a, &b);
    if (std::strcmp(what, "stats") == 0) {
      WriteCounters(reply, ServerCounters(*server));
    } else if (std::strcmp(what, "inproc_sat") == 0 ||
               std::strcmp(what, "inproc_open") == 0) {
      const bool open = what[7] == 'o';
      const Counters before = ServerCounters(*server);
      const InprocResult r =
          open ? RunInproc(engine.get(), inproc_open, a, 0, b)
               : RunInproc(engine.get(), inproc_sat, 0,
                           static_cast<uint32_t>(a), b);
      const Counters d = Delta(ServerCounters(*server), before);
      const Summary lat = Summarize(r.frame_ms);
      const Summary sub = Summarize(r.submit_us);
      Counters out;
      out["ops_s"] = r.ok / r.seconds;
      out["ok"] = static_cast<double>(r.ok);
      out["failed"] = static_cast<double>(r.failed);
      out["frame_mean_ms"] = lat.mean;
      out["frame_p99_ms"] = lat.p99;
      out["frames"] = static_cast<double>(lat.n);
      out["submit_us"] = sub.median;
      const double groups = Get(d, "shard.coalesced_groups");
      out["ops_per_group"] =
          groups > 0 ? (Get(d, "shard.gets") + Get(d, "shard.updates")) / groups
                     : 0;
      WriteCounters(reply, out);
    } else {
      break;
    }
  }
  _exit(0);
}

// ---- Parent side ------------------------------------------------------------

class ServerProcess {
 public:
  bool Start(const Config& c, const Plan& plan) {
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return false;
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(to_child[1]);
      ::close(from_child[0]);
      ServerMain(c, plan, ::fdopen(to_child[0], "r"),
                 ::fdopen(from_child[1], "w"));
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    cmd_ = ::fdopen(to_child[1], "w");
    reply_ = ::fdopen(from_child[0], "r");
    char line[256];
    unsigned port = 0;
    if (std::fgets(line, sizeof(line), reply_) == nullptr ||
        std::sscanf(line, "ready %u %lf %lf %zu", &port, &setup_.cpu_s,
                    &setup_.wall_s, &setup_.reps) != 4) {
      return false;
    }
    port_ = static_cast<uint16_t>(port);
    return port_ != 0;
  }

  Counters Command(const std::string& cmd) {
    Counters c;
    std::fprintf(cmd_, "%s\n", cmd.c_str());
    std::fflush(cmd_);
    char line[512];
    while (std::fgets(line, sizeof(line), reply_) != nullptr) {
      if (std::strncmp(line, "end", 3) == 0) break;
      char name[400];
      double v = 0;
      if (std::sscanf(line, "%399s %lf", name, &v) == 2) c[name] = v;
    }
    return c;
  }
  Counters Stats() { return Command("stats"); }

  /// kill -9: nothing after the last acked frame runs.
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (cmd_) std::fclose(cmd_);
    if (reply_) std::fclose(reply_);
    cmd_ = reply_ = nullptr;
  }
  ~ServerProcess() { Kill(); }

  uint16_t port() const { return port_; }
  const SetupTimes& setup() const { return setup_; }

 private:
  pid_t pid_ = -1;
  FILE* cmd_ = nullptr;
  FILE* reply_ = nullptr;
  uint16_t port_ = 0;
  SetupTimes setup_;
};

double Median(std::vector<double> xs) { return Summarize(std::move(xs)).median; }

/// Run-wide tallies that decide `correct`, `attempted` and `failed`.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  bool harness_ok = true;
  void Add(const char* phase, const PhaseResult& r) {
    attempted += r.attempted;
    wrong += r.wrong;
    failed += r.failed;
    if (!r.drained || r.failed > 0) {
      std::fprintf(stderr, "phase %s: %llu of %llu ops failed%s\n", phase,
                   static_cast<unsigned long long>(r.failed),
                   static_cast<unsigned long long>(r.attempted),
                   r.drained ? "" : " (not drained)");
    }
    if (r.wrong > 0) {
      std::fprintf(stderr, "phase %s: %llu wrong results\n", phase,
                   static_cast<unsigned long long>(r.wrong));
    }
  }
};

/// One row the engine must return: `key` at a version in [lo, hi].
struct Expect {
  uint64_t key;
  uint32_t lo, hi;
};

uint64_t CountWrong(ShardedEngine* engine, const Oracle& oracle,
                    const std::vector<Expect>& want) {
  uint64_t wrong = 0;
  for (size_t i = 0; i < want.size(); i += 256) {
    RequestBatch b;
    const size_t end = std::min(want.size(), i + 256);
    for (size_t j = i; j < end; ++j) b.push_back(Request::Get(want[j].key));
    const BatchResult r = engine->Execute(b);
    for (size_t j = i; j < end; ++j) {
      const RequestResult& got = r.results[j - i];
      if (!got.status.ok() ||
          !oracle.Check(want[j].key, got.row, want[j].lo, want[j].hi)) {
        ++wrong;
      }
    }
  }
  return wrong;
}

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  // per-layer: the end-to-end metric it should move
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"cpu_us_per_op", "us", ""},
    {"peak_rss_mb", "MB", ""},
    {"write_bytes_per_user_byte", "B/B", ""},
};

// The "moves" column names only gated end-to-end metrics (kEndToEnd).
// Latencies, goodput and recovery time are printed but not gated: their
// run-to-run spread on a shared machine is wider than any usable bound. A
// layer whose time only shows in those is marked "(printed ...)".
const MetricDef kPerLayer[] = {
    {"net.encode_req_us", "us", "cpu_us_per_op (read_hot)"},
    {"net.decode_req_us", "us", "cpu_us_per_op (read_hot)"},
    {"net.encode_resp_us", "us", "cpu_us_per_op (read_hot)"},
    {"net.decode_resp_us", "us", "cpu_us_per_op (read_hot)"},
    {"net.bytes_per_op", "B/op", "cpu_us_per_op (read_hot)"},
    {"net.shed_frac", "frac", "(must stay 0: a shed op fails the run)"},
    {"net.overhead_us", "us", "cpu_us_per_op (read_hot), printed get p50"},
    {"shard.inproc_ops_s", "ops/s", "cpu_us_per_op"},
    {"shard.inproc_p99_ms", "ms", "(printed get p99)"},
    {"shard.submit_us", "us", "cpu_us_per_op"},
    {"shard.ops_per_group", "ops", "cpu_us_per_op"},
    {"shard.get_batch_us_per_key", "us", "cpu_us_per_op"},
    {"shard.update_us", "us", "cpu_us_per_op (write_mix), setup_s"},
    {"shard.commit_wal_us", "us", "setup_s, printed put p50/p99"},
    {"shard.checkpoint_ms", "ms", "(printed put p99)"},
    {"index.btree_get_us", "us", "cpu_us_per_op (read_hot), setup_s"},
    {"storage.buffer_pool.hit_rate", "frac", "cpu_us_per_op (read_miss)"},
    {"storage.buffer_pool.evictions_per_op", "1/op",
     "cpu_us_per_op (read_miss)"},
    {"storage.buffer_pool.dirty_writebacks_per_op", "1/op",
     "write_bytes_per_user_byte"},
    {"storage.disk.reads_per_op", "1/op", "cpu_us_per_op (read_miss)"},
    {"storage.disk.writes_per_op", "1/op", "write_bytes_per_user_byte"},
    {"storage.disk.submit_us", "us", "cpu_us_per_op (read_miss)"},
    {"storage.disk.wait_us", "us", "(printed get p50 on read_miss)"},
    {"storage.disk.sync_us", "us", "setup_s, printed put p50/p99"},
    {"storage.wal.append_us", "us", "setup_s, cpu_us_per_op (write_mix)"},
    {"storage.wal.commit_us", "us", "setup_s, printed put p50/p99"},
    {"storage.wal.ops_per_commit", "ops", "write_bytes_per_user_byte"},
    {"storage.wal.bytes_per_put", "B/op", "write_bytes_per_user_byte"},
    {"recovery.superblock_read_us", "us", "(printed recovery time)"},
    {"recovery.rebuild_s", "s", "(printed recovery time)"},
    {"recovery.replay_mb_s", "MB/s", "(printed recovery time)"},
    {"gen.lag_ms", "ms", "(harness)"},
    {"trace_overhead_frac", "frac", "(harness)"},
    {"layer.unattributed_frac", "frac", "(harness)"},
};

double PerOp(double count, double ops) { return ops > 0 ? count / ops : 0; }

void PrintLatency(const char* name, const std::vector<double>& xs) {
  const Summary s = Summarize(xs);
  std::printf("  %-12s median %.3f ms, p%.4g %.3f ms, p99 %.3f ms, n=%zu\n",
              name, s.median, s.high_pct, s.high, s.p99, s.n);
}

int Run(const Config& c) {
  const Plan plan(c);
  ::mkdir(c.dir.c_str(), 0755);
  ServerProcess server;
  if (!server.Start(c, plan)) {
    std::fprintf(stderr, "server process failed to start\n");
    return 1;
  }
  const Dataset data(c.seed, c.rows, kTraceKeys);
  Oracle oracle(&data);
  FrameFactory factory(c.seed, &data);
  const Inputs in = BuildInputs(c, plan, &factory);
  const uint16_t port = server.port();
  Tally tally;

  const PhaseResult warm =
      RunClosedLoop(port, in.warm, kDepth, plan.warm_s, &oracle);
  tally.Add("warm-up", warm);

  const Counters s_serve = server.Stats();
  const PhaseResult sat =
      RunClosedLoop(port, in.sat, kDepth, plan.sat_s, &oracle);
  const Counters d_sat = Delta(server.Stats(), s_serve);
  tally.Add("saturation", sat);

  const Counters s_open = server.Stats();
  const PhaseResult open =
      RunOpenLoop(port, in.open, c.rate_ops, plan.open_s, &oracle);
  const Counters d_open = Delta(server.Stats(), s_open);
  tally.Add("latency", open);
  if (BacklogGrew(open)) {
    std::printf("  WARNING: backlog grew at the fixed offered rate\n");
  }

  // Traced: the same phase again while the counters are polled every 50 ms,
  // which is what tracing from outside costs the server.
  PhaseResult polled;
  if (c.trace) {
    std::atomic<bool> done{false};
    std::thread driver([&] {
      polled = RunOpenLoop(port, in.open_polled, c.rate_ops, plan.polled_s,
                           &oracle);
      done = true;
    });
    while (!done) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (!done) server.Stats();
    }
    driver.join();
    tally.Add("latency-polled", polled);
  }

  uint64_t serve_put_bytes = sat.put_payload_bytes + open.put_payload_bytes +
                             polled.put_payload_bytes;

  PhaseResult probe;
  if (plan.probe_s > 0) {
    probe = RunOpenLoop(port, in.probe, kProbePutOps, plan.probe_s, &oracle);
    tally.Add("put-probe", probe);
    serve_put_bytes += probe.put_payload_bytes;
  }
  const Counters s_end = server.Stats();
  const Counters d_serve = Delta(s_end, s_serve);

  // Traced: the engine without the network, on the same warm server.
  Counters inproc_sat, inproc_open;
  if (c.trace) {
    inproc_sat = server.Command("inproc_sat " +
                                std::to_string(kConns * kDepth) + " " +
                                std::to_string(plan.inproc_sat_s));
    inproc_open = server.Command("inproc_open " +
                                 std::to_string(c.rate_ops * (1 - c.put_share)) +
                                 " " + std::to_string(plan.inproc_open_s));
    if (Get(inproc_sat, "failed") + Get(inproc_open, "failed") > 0) {
      std::fprintf(stderr, "in-process phases saw failures\n");
      tally.harness_ok = false;
    }
  }

  server.Kill();

  // Durability: after kill -9, every put the server acknowledged must be
  // read back (plus a sample of the untouched rows).
  const std::string prefix = EnginePrefix(c.dir);
  {
    auto e = ShardedEngine::Open(EngineOptions(prefix, false));
    if (!e.ok()) {
      std::fprintf(stderr, "reopen after kill: %s\n",
                   e.status().ToString().c_str());
      tally.harness_ok = false;
    } else {
      std::vector<Expect> want;
      Rng rng(c.seed ^ 0xabcdef);
      for (uint64_t k = 1; k <= data.rows(); ++k) {
        if (oracle.acked(k) > 0 || rng.Uniform(64) == 0) {
          want.push_back({k, oracle.acked(k), oracle.sent(k)});
        }
      }
      const uint64_t lost = CountWrong(e->get(), oracle, want);
      if (lost > 0) {
        std::fprintf(stderr, "after kill -9: %llu acked rows not read back\n",
                     static_cast<unsigned long long>(lost));
      }
      tally.wrong += lost;
    }
  }
  RemoveEngineFiles(prefix);

  // Recovery time, on a crash image whose recovery work depends only on the
  // inputs: rows loaded, then the tail's put frames one at a time, then exit
  // with no close. Each repetition restores the image and times the reopen
  // to the first correct Get. The image stays in the page cache: cold reads
  // from the shared virtual disk vary more between runs than recovery costs.
  const std::string image = c.dir + "/image";
  const std::string work = c.dir + "/recovered";
  std::vector<double> recovery_s;
  std::map<uint64_t, uint32_t> tail_version;
  for (const FrameList& list : in.tail) {
    for (const FrameSpec& f : list) {
      for (size_t j = 0; j < f.keys.size(); ++j) {
        uint32_t& v = tail_version[f.keys[j]];
        v = std::max(v, f.versions[j]);
      }
    }
  }
  const uint64_t probe_key = in.tail[kConns - 1].back().keys.back();
  if (!BuildCrashImage(data, image, in.tail)) {
    std::fprintf(stderr, "crash image: builder failed\n");
    tally.harness_ok = false;
  }
  for (int rep = 0; rep < kRecoveryReps && tally.harness_ok; ++rep) {
    for (uint32_t s = 0; s < kShards; ++s) {
      const auto from = ShardFiles(image, s);
      const auto to = ShardFiles(work, s);
      for (size_t i = 0; i < from.size(); ++i) {
        if (!CopyFile(from[i], to[i]).ok()) tally.harness_ok = false;
      }
    }
    const double t0 = Now();
    auto e = ShardedEngine::Open(EngineOptions(work, false));
    if (!e.ok()) {
      std::fprintf(stderr, "recovery open: %s\n", e.status().ToString().c_str());
      tally.harness_ok = false;
      break;
    }
    auto first = (*e)->Get(probe_key);
    recovery_s.push_back(Now() - t0);
    const uint32_t v = tail_version[probe_key];
    uint64_t wrong =
        first.ok() && oracle.Check(probe_key, *first, v, v) ? 0 : 1;
    if (rep + 1 == kRecoveryReps) {
      std::vector<Expect> want;
      for (const auto& [k, ver] : tail_version) want.push_back({k, ver, ver});
      for (uint64_t k = 1; k <= data.rows(); k += 61) {
        if (tail_version.count(k) == 0) want.push_back({k, 0, 0});
      }
      wrong += CountWrong(e->get(), oracle, want);
    }
    if (wrong > 0) {
      std::fprintf(stderr, "recovery: %llu rows wrong after reopen\n",
                   static_cast<unsigned long long>(wrong));
    }
    tally.wrong += wrong;
  }
  RemoveEngineFiles(work);

  // ---- Metrics --------------------------------------------------------------
  const Summary get_lat = Summarize(open.get_ms);
  const std::vector<double>& put_ms =
      c.put_share > 0 ? open.put_ms : probe.put_ms;
  const double serve_ops =
      Get(d_serve, "shard.gets") + Get(d_serve, "shard.updates");
  LayerMetrics m;
  if (!c.trace) {
    m.Set("setup_s", server.setup().cpu_s);
    m.Set("cpu_us_per_op",
          PerOp(Get(d_sat, "rusage.utime_us") + Get(d_sat, "rusage.stime_us"),
                static_cast<double>(sat.ok)));
    m.Set("peak_rss_mb", Get(s_end, "rusage.maxrss_kb") / 1024.0);
    m.Set("write_bytes_per_user_byte",
          PerOp((Get(d_serve, "disk.writes") + Get(d_serve, "wal.commit_pages")) *
                    kPageSize,
                static_cast<double>(serve_put_bytes)));
  } else {
    MeasureCodec(open.sample_request, open.sample_result, &m);
    m.Set("net.bytes_per_op",
          PerOp(Get(d_open, "net.bytes_in") + Get(d_open, "net.bytes_out"),
                static_cast<double>(open.attempted)));
    m.Set("net.shed_frac",
          PerOp(Get(d_serve, "net.busy_shed"), Get(d_serve, "net.frames_in")));
    const double inproc_mean_ms = Get(inproc_open, "frame_mean_ms");
    m.Set("net.overhead_us", (get_lat.mean - inproc_mean_ms) * 1e3);
    m.Set("shard.inproc_ops_s", Get(inproc_sat, "ops_s"));
    m.Set("shard.inproc_p99_ms", Get(inproc_open, "frame_p99_ms"));
    m.Set("shard.submit_us", Get(inproc_open, "submit_us"));
    m.Set("shard.ops_per_group",
          PerOp(Get(d_sat, "shard.gets") + Get(d_sat, "shard.updates"),
                Get(d_sat, "shard.coalesced_groups")));
    const double hits = Get(d_serve, "buffer_pool.hits");
    m.Set("storage.buffer_pool.hit_rate",
          PerOp(hits, hits + Get(d_serve, "buffer_pool.misses")));
    m.Set("storage.buffer_pool.evictions_per_op",
          PerOp(Get(d_serve, "buffer_pool.evictions"), serve_ops));
    m.Set("storage.buffer_pool.dirty_writebacks_per_op",
          PerOp(Get(d_serve, "buffer_pool.dirty_writebacks"), serve_ops));
    m.Set("storage.disk.reads_per_op",
          PerOp(Get(d_serve, "disk.reads"), serve_ops));
    m.Set("storage.disk.writes_per_op",
          PerOp(Get(d_serve, "disk.writes"), serve_ops));
    const double ops_per_commit =
        PerOp(Get(d_serve, "wal.appends"), Get(d_serve, "wal.commits"));
    m.Set("storage.wal.ops_per_commit", ops_per_commit);
    m.Set("storage.wal.bytes_per_put",
          PerOp(Get(d_serve, "wal.bytes_appended"), Get(d_serve, "wal.appends")));
    const uint32_t group =
        static_cast<uint32_t>(std::max(1.0, std::round(ops_per_commit)));
    Status st = MeasureStandaloneShard(c, data, group, &m);
    if (st.ok()) st = MeasureRecoveryLayers(c, image, &m);
    if (!st.ok()) {
      std::fprintf(stderr, "layer timings: %s\n", st.ToString().c_str());
      tally.harness_ok = false;
    }
    m.SetTiming("gen.lag_ms", open.lag_ms);
    m.value["gen.lag_ms"] = Summarize(open.lag_ms).p99;
    m.Set("trace_overhead_frac",
          PerOp(Summarize(polled.frame_ms).mean, Summarize(open.frame_ms).mean) -
              1);
    const double attributed_us =
        m.value["net.encode_req_us"] + m.value["net.decode_req_us"] +
        m.value["net.encode_resp_us"] + m.value["net.decode_resp_us"] +
        inproc_mean_ms * 1e3;
    m.Set("layer.unattributed_frac", 1 - PerOp(attributed_us, get_lat.mean * 1e3));
  }

  // ---- Report ---------------------------------------------------------------
  std::printf("workload %s, seed %llu, %s run: %llu rows, pool %zu frames x "
              "%u shards, %zu-op frames\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              c.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(data.rows()), kPoolFramesPerShard,
              kShards, kFrameOps);
  std::printf("  saturation: %.0f ops/s acked in %.2f s, %u connections x %u "
              "frames outstanding\n",
              MedianWindowRate(sat, kRateWindowS), sat.seconds, kConns,
              kDepth);
  std::printf("  setup: median %.4f s CPU, %.4f s wall, over %zu set-ups\n",
              server.setup().cpu_s, server.setup().wall_s,
              server.setup().reps);
  std::printf("  recovery: median %.4f s over %zu reopens of the crash image\n",
              Median(recovery_s), recovery_s.size());
  std::printf("  fixed rate %.0f ops/s:\n", c.rate_ops);
  PrintLatency("get frames", open.get_ms);
  PrintLatency(c.put_share > 0 ? "put frames" : "put probe", put_ms);
  PrintLatency("gen lag", open.lag_ms);
  std::printf("  server peak RSS %.1f MB after set-up, %.1f MB at the end\n",
              Get(s_serve, "rusage.maxrss_kb") / 1024.0,
              Get(s_end, "rusage.maxrss_kb") / 1024.0);
  std::printf("  buffer pool hit rate %.4f over %.0f ops\n",
              PerOp(Get(d_serve, "buffer_pool.hits"),
                    Get(d_serve, "buffer_pool.hits") +
                        Get(d_serve, "buffer_pool.misses")),
              serve_ops);
  const MetricDef* defs = c.trace ? kPerLayer : kEndToEnd;
  const size_t ndefs = c.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::printf("  %-44s %14s %-6s %s\n", "metric", "value", "unit",
              c.trace ? "should move (end to end)" : "");
  for (size_t i = 0; i < ndefs; ++i) {
    const MetricDef& d = defs[i];
    std::printf("  %-44s %14.6g %-6s %s", d.name, m.value[d.name], d.unit,
                d.moves);
    auto t = m.timing.find(d.name);
    if (t != m.timing.end()) {
      std::printf("  [median %.4g, p%.4g %.4g, n=%zu]", t->second.median,
                  t->second.high_pct, t->second.high, t->second.n);
    }
    std::printf("\n");
  }

  const bool correct = tally.wrong == 0 && tally.failed == 0 && tally.harness_ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, tally.attempted)),
              static_cast<unsigned long long>(tally.failed + tally.wrong));
  for (size_t i = 0; i < ndefs; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", defs[i].name, m.value[defs[i].name],
                defs[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace nblb::perfbench

int main(int argc, char** argv) {
  const nblb::perfbench::Config c = nblb::perfbench::ParseFlags(argc, argv);
  return nblb::perfbench::Run(c);
}
