// Shared declarations of the serving benchmark (see run.py for usage).
//
// The benchmark drives the real stack — loopback TCP NetServer ->
// ShardedEngine -> Shard -> buffer pool / DiskManager / WAL — with one
// engine configuration for every workload. Workloads differ only in their
// inputs: revision rows loaded (data size against the fixed buffer pool),
// the share of put frames, and the fixed offered rates recorded in
// workloads.json.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "shard/request.h"
#include "shard/sharded_engine.h"
#include "workload/wikipedia.h"

namespace nblb::perfbench {

// ---- The one engine configuration ------------------------------------------
// A durable server: 4 shards on 4 workers, buffered data files, WAL with
// group commit, background flusher, periodic checkpoints, and fail-fast
// shard queues behind the network front end.
constexpr uint32_t kShards = 4;
constexpr uint32_t kWorkers = 4;
constexpr size_t kPageSize = 8192;
constexpr size_t kPoolFramesPerShard = 128;  // 1 MiB per shard, 4 MiB total
constexpr uint64_t kFlusherIntervalUs = 2000;
/// Groups per shard between periodic checkpoints. At the fixed offered
/// rates a shard serves one small group per frame, so a shorter cadence
/// would put a checkpoint (three fsyncs and a WAL file swap) behind about
/// 1% of frames and make every p99 a checkpoint stall.
constexpr uint64_t kCheckpointEveryGroups = 16384;
constexpr size_t kMaxQueueDepth = 256;
/// NetServer admission cap per connection; the global cap derives from the
/// engine (kShards x kMaxQueueDepth).
constexpr size_t kMaxInflightPerConn = 256;

// ---- Load shape ------------------------------------------------------------
constexpr uint32_t kConns = 4;     // one generator thread per connection
constexpr size_t kFrameOps = 16;   // point ops per request frame
constexpr uint32_t kDepth = 8;     // closed loop: frames outstanding per conn
/// Offered rate of the put-only probe on workloads whose mix has no puts.
constexpr double kProbePutOps = 2000;
/// Put frames committed to the WAL tail of the crash image.
constexpr size_t kTailFrames = 64;
/// Set-up is repeated at least kSetupReps times and for at least
/// kSetupSeconds. setup_s is the median of its process CPU time (all
/// threads); the median wall time is printed but not gated, because the
/// load fdatasyncs every row through the WAL and on a shared disk the wall
/// time of the same set-up swung 2.3x from run to run.
constexpr size_t kSetupReps = 5;
constexpr double kSetupSeconds = 2.0;
/// Timed reopens of the crash image per run; the printed figure is a median.
constexpr int kRecoveryReps = 5;

// ---- Data and traffic (the repository's Wikipedia synthesizer) -------------
/// The served table is the synthesized revision table, keyed by rev_id. At
/// 20 revisions per page the latest revisions, the hot set, are 5% of the
/// rows, scattered through the table in edit-time order.
constexpr double kRevisionsPerPage = 20;
/// RevisionLookupTrace's share of reads that hit latest revisions (the
/// paper's measured revision-read skew); the rest are uniform.
constexpr double kHotReadShare = 0.999;
/// Length of the precomputed read trace; frames walk it cyclically.
constexpr size_t kTraceKeys = size_t{1} << 21;
/// A put writes the loaded row with rev_text_id advanced by its version, so
/// every Get can be checked against the versions the generator sent and
/// had acked.
constexpr size_t kVersionColumn = 2;

/// Run parameters: the command-line flags plus the workload's inputs.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  // scratch directory for engine files (inside checkout)

  uint64_t rows = 0;        // revision rows loaded
  double put_share = 0;     // share of put frames in the serving mix
  double rate_ops = 0;      // fixed offered rate of the latency phase
  double max_sat_ops = 0;   // bound used to size saturation inputs
};

/// The served table and its reads, generated from the seed.
class Dataset {
 public:
  /// `trace_keys` = 0 builds no read trace (for processes that only load).
  Dataset(uint64_t seed, uint64_t rows, size_t trace_keys);
  uint64_t rows() const { return rows_->size(); }
  /// `key`'s row as loaded; keys are 1..rows().
  const Row& Loaded(uint64_t key) const { return (*rows_)[key - 1]; }
  /// `key`'s row at `version` (0 = as loaded).
  Row RowAt(uint64_t key, uint32_t version) const;
  /// Key of the i-th read of the trace (cyclic).
  uint64_t TraceKey(size_t i) const {
    return static_cast<uint64_t>(trace_[i % trace_.size()]);
  }

 private:
  WikipediaSynthesizer synth_;
  const std::vector<Row>* rows_;
  std::vector<int64_t> trace_;
};

/// User payload bytes of a row: 8 per integer column plus string lengths.
uint64_t PayloadBytes(const Row& row);
ShardedEngineOptions EngineOptions(const std::string& prefix, bool truncate);
std::string EnginePrefix(const std::string& dir);
/// The engine's shard data file plus its superblock and WAL sidecars.
std::vector<std::string> ShardFiles(const std::string& prefix, uint32_t shard);

double Now();

/// Exact-sample summary: median, the highest of p99.9/p99/p90/p50 that has
/// at least ten samples beyond it, and the sample count.
struct Summary {
  size_t n = 0;
  double mean = 0;
  double median = 0;
  double high = 0;
  double high_pct = 0;  // which percentile `high` is
  double p99 = 0;
};
Summary Summarize(std::vector<double> xs);

/// Counters summed over shards ("shard3.disk.reads" -> "disk.reads"), plus
/// the server process's rusage ("rusage.utime_us", ...).
using Counters = std::map<std::string, double>;
Counters Delta(const Counters& after, const Counters& before);
double Get(const Counters& c, const std::string& name);

/// What the generator knows about each key: the newest version it sent and
/// the newest version the server acknowledged. A key is written by one
/// connection only, so each version sequence is ordered.
class Oracle {
 public:
  explicit Oracle(const Dataset* data);
  uint32_t sent(uint64_t key) const {
    return sent_[key].load(std::memory_order_acquire);
  }
  uint32_t acked(uint64_t key) const {
    return acked_[key].load(std::memory_order_acquire);
  }
  void NoteSent(uint64_t key, uint32_t version);
  void NoteAcked(uint64_t key, uint32_t version);
  /// True iff `row` is `key`'s row at some version in [lo, hi].
  bool Check(uint64_t key, const Row& row, uint32_t lo, uint32_t hi) const;

 private:
  const Dataset* data_;
  std::unique_ptr<std::atomic<uint32_t>[]> sent_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
};

/// One pre-encoded request frame.
struct FrameSpec {
  uint64_t request_id = 0;
  bool put = false;
  std::vector<uint32_t> keys;
  std::vector<uint32_t> versions;  // put frames only
  uint64_t payload_bytes = 0;      // put frames only
  std::string wire;
};
using FrameList = std::vector<FrameSpec>;
/// One phase's inputs: a frame list per connection.
using PhaseFrames = std::vector<FrameList>;

/// Builds frames: get keys follow the read trace, a put frame takes the
/// next trace keys its connection owns, and versions are assigned in
/// generation (= send) order.
class FrameFactory {
 public:
  FrameFactory(uint64_t seed, const Dataset* data);
  PhaseFrames Make(size_t frames_per_conn, double put_share);

 private:
  uint64_t seed_;
  const Dataset* data_;
  std::vector<uint32_t> next_version_;
  std::vector<uint64_t> next_request_id_;
  uint64_t stream_ = 0;
  size_t next_read_ = 0;
};

// ---- Load generator (load.cc) ----------------------------------------------

struct PhaseResult {
  double seconds = 0;
  std::vector<double> get_ms;  // per get frame
  std::vector<double> put_ms;  // per put frame
  std::vector<double> get_t;   // when each get frame's latency started
  std::vector<double> put_t;
  std::vector<double> lag_ms;  // open loop: send time minus scheduled time
  uint64_t attempted = 0;      // ops
  uint64_t ok = 0;
  uint64_t failed = 0;         // transport, busy, or wrong result
  uint64_t wrong = 0;          // oracle mismatches (subset of failed)
  uint64_t put_payload_bytes = 0;
  bool drained = true;
  std::vector<double> frame_ms;  // every frame, for means
  double start = 0;              // when the phase began
  std::vector<double> ok_done_t; // completion time of every all-OK frame
  BatchResult sample_result;     // one get response, for codec timings
  RequestBatch sample_request;   // its request
};

/// Open loop: each connection sends its frames on a fixed schedule that
/// totals `rate_ops` ops/s, and every frame is timed from its scheduled
/// send time. Sends stop after `seconds`.
PhaseResult RunOpenLoop(uint16_t port, const PhaseFrames& frames,
                        double rate_ops, double seconds, Oracle* oracle);
/// Closed loop: each connection keeps `depth` frames outstanding until
/// `seconds` pass. If a connection's frames run out first, the phase's
/// measured window ends there.
PhaseResult RunClosedLoop(uint16_t port, const PhaseFrames& frames,
                          uint32_t depth, double seconds, Oracle* oracle);

/// Ops/s acked in each `window_s` slice of the phase, median over slices:
/// a stall of the shared machine moves one slice, not the figure.
double MedianWindowRate(const PhaseResult& r, double window_s);

// ---- Traced per-layer timings (layers.cc) ----------------------------------

/// Per-layer values by metric name; timings also keep their summary.
struct LayerMetrics {
  std::map<std::string, double> value;
  std::map<std::string, Summary> timing;
  void Set(const std::string& name, double v) { value[name] = v; }
  /// Records a timing's samples; its value is their median.
  void SetTiming(const std::string& name, std::vector<double> samples) {
    const Summary s = Summarize(std::move(samples));
    value[name] = s.median;
    timing[name] = s;
  }
};

/// Wire-codec timings on the workload's own request and response.
void MeasureCodec(const RequestBatch& request, const BatchResult& result,
                  LayerMetrics* out);
/// A standalone single-threaded Shard with the engine's schema, key
/// distribution and pool-to-data ratio: shard, index, disk and WAL calls.
Status MeasureStandaloneShard(const Config& config, const Dataset& data,
                              uint32_t commit_group, LayerMetrics* out);
/// Superblock read, index rebuild and WAL replay on a copy of the crash
/// image of shard 0.
Status MeasureRecoveryLayers(const Config& config,
                             const std::string& image_prefix,
                             LayerMetrics* out);

// ---- File helpers ----------------------------------------------------------
Status CopyFile(const std::string& from, const std::string& to);

}  // namespace nblb::perfbench
