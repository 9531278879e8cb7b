// sedna_perfbench: one command that runs a named workload on the simulated
// paper testbed, checks the outputs, and prints every metric with its unit.
//
//   sedna_perfbench --workload <paper_fig8|ycsb_a_large|durable_churn>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --out <dir> [--small]
//
// --trace 0 times the untraced run (end-to-end metrics). --trace 1 turns
// the simulator's Tracer and critical-path attribution on, counts events
// and allocations, then replays each layer on the workload's own inputs
// (per-layer metrics). The last stdout line is one JSON object holding
// every metric; perfbench/run.py selects the ones BENCHMARK.json names.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {

// ---- spans ------------------------------------------------------------------

SpanLog& spans() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = wall_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id, std::uint64_t items) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = wall_ns();
  s.items = items;
  // ScopedSpan closes spans in LIFO order.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"dur_us\": %.3f, \"items\": %llu}%s\n",
                 i, s.parent, s.name.c_str(),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.items),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// ---- process + statistics ----------------------------------------------------

std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

void Report::set(const std::string& name, double value,
                 const std::string& unit, bool deterministic) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e = Entry{name, value, unit, deterministic};
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit, deterministic});
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Report;

int usage() {
  std::fprintf(stderr,
               "usage: sedna_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir> [--small]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char*& v) {
      if (i + 1 >= argc) return false;
      v = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (a == "--small") {
      opt.small = true;
    } else if (a == "--workload" && next(v)) {
      opt.workload = v;
    } else if (a == "--seed" && next(v)) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && next(v)) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && next(v)) {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out" && next(v)) {
      opt.out_dir = v;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && !opt.out_dir.empty() && opt.seconds > 0;
}

void print_json(const Options& opt, const Report& r) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const Report::Entry& e : r.entries()) {
    const double v = std::isfinite(e.value) ? e.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"deterministic\": %s}",
                first ? "" : ", ", e.name.c_str(), v, e.unit.c_str(),
                e.deterministic ? "true" : "false");
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  if (opt.workload != "paper_fig8" && opt.workload != "ycsb_a_large" &&
      opt.workload != "durable_churn") {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opt.out_dir.c_str());
    return 2;
  }

  Report report;
  perfbench::WorkloadInputs inputs;
  {
    perfbench::ScopedSpan run_span("run." + opt.workload);
    perfbench::run_workload(opt, report, inputs);
    if (opt.trace && report.correct) {
      perfbench::ScopedSpan replay_span("replays");
      perfbench::run_replays(opt, inputs, report);
    }
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-spans.json";
    if (!perfbench::spans().write_json(path)) {
      report.fail("could not write spans to " + path);
    } else {
      std::printf("spans: %zu written to %s\n",
                  perfbench::spans().spans().size(), path.c_str());
    }
  }

  for (const Report::Entry& e : report.entries()) {
    std::printf("%-34s %16.6g %-8s %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.deterministic ? "(sim/count)" : "(wall)");
  }
  for (const std::string& p : report.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::fflush(stdout);
  if (!report.correct) return 1;
  print_json(opt, report);
  return 0;
}
