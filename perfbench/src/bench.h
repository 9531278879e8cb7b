// Shared pieces of the Sedna performance benchmark: options, the metric
// report, wall-clock spans, allocation counting and small statistics.
//
// Two clocks run side by side. Simulated time (cluster.sim().now(), µs)
// is what the paper's figures are in; it is a pure function of the seed.
// Wall-clock time (std::chrono::steady_clock) is what the code costs on
// the machine running the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes for the deterministic self-check.
  bool small = false;
  /// Benchmark-owned directory for WAL/snapshot files and span dumps.
  std::string out_dir;
};

// ---- wall clock -----------------------------------------------------------

using WallClock = std::chrono::steady_clock;

inline double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now().time_since_epoch())
      .count();
}

/// Wall-clock spans recorded from the benchmark's own code around each
/// phase and each batch of calls into a layer. Kept in memory; written
/// out once when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Work items the span covered (ops, events, records), 0 if none.
    std::uint64_t items = 0;
  };

  /// Capacity is reserved up front so that recording a span never moves
  /// the log, which would shift the heap byte counts being measured.
  SpanLog() { spans_.reserve(1 << 14); }

  int begin(std::string name);
  void end(int id, std::uint64_t items = 0);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The process-wide span log.
SpanLog& spans();

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name) : id_(spans().begin(std::move(name))) {}
  ~ScopedSpan() { spans().end(id_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_items(std::uint64_t n) { items_ = n; }

 private:
  int id_;
  std::uint64_t items_ = 0;
};

// ---- allocation counting (alloc_count.cc replaces operator new) ----------

/// Heap allocations made through operator new since process start.
std::uint64_t allocations();
/// Bytes currently held through operator new (usable sizes).
std::int64_t live_heap_bytes();

/// Resident set size of this process, in bytes.
std::uint64_t rss_bytes();

// ---- statistics -------------------------------------------------------------

/// Quantile q in [0,1] with linear interpolation between order statistics
/// (the "type 7" estimator). Sorts `v` in place. 0 on empty input.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

// ---- report -----------------------------------------------------------------

/// Every metric a run produces, by name, with unit. `deterministic`
/// marks values that are a pure function of the seed (sim-clock values
/// and counts); the self-check requires those to repeat exactly.
class Report {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool deterministic = false;
  };

  void set(const std::string& name, double value, const std::string& unit,
           bool deterministic);
  void det(const std::string& name, double value, const std::string& unit) {
    set(name, value, unit, true);
  }
  void wall(const std::string& name, double value, const std::string& unit) {
    set(name, value, unit, false);
  }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for a failed correctness check.
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }

 private:
  std::vector<Entry> entries_;
};

// ---- workloads and layer replays -------------------------------------------

/// Stream of the workload's own generated inputs, handed to the layer
/// replays so they run on the same keys, values and record sizes.
struct WorkloadInputs {
  std::vector<std::string> keys;           // every key of the keyspace
  std::vector<std::uint32_t> op_keys;      // indices of the op key stream
  std::vector<std::string> values;         // sample of generated values
  std::uint32_t total_vnodes = 0;
  std::uint32_t replicas = 0;
  /// vnode → owner at the end of the run (ring replay).
  std::vector<std::uint32_t> owners;
  /// Sim-kernel replay shape, measured during the run.
  double mean_pending_events = 0.0;
  double mean_event_gap_us = 0.0;
  double mean_message_bytes = 0.0;
};

/// Runs one workload end to end and fills `report`; `inputs` receives the
/// workload's generated inputs for the replays (trace mode).
void run_workload(const Options& opt, Report& report, WorkloadInputs& inputs);

/// Layer replays (store, wal, codec, ring, sim kernel) on the workload's
/// own inputs. Trace mode only, after the cluster is gone.
void run_replays(const Options& opt, const WorkloadInputs& inputs,
                 Report& report);

}  // namespace perfbench
