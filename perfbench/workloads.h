// The benchmark's three workloads, run through pxq's public API. Each
// fills a Report; with tracing on it also fills a TraceFile. See
// README.md for why each workload exists and what it measures.
#ifndef PXQ_PERFBENCH_WORKLOADS_H_
#define PXQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // this run's files: data directory, trace, result
};

/// What one run measured and checked.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;  // -1 when not a sample statistic
  };

  /// One of the contract's end-to-end metrics (BENCHMARK.json).
  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    end_to_end_.push_back({name, value, unit, -1});
  }
  /// A metric under the name the workload's table in README.md uses.
  void Named(const std::string& name, double value, const std::string& unit,
             int64_t samples = -1) {
    named_.push_back({name, value, unit, samples});
  }
  void Fact(const std::string& name, double value) {
    facts_.emplace_back(name, value);
  }
  void Hash(const std::string& name, uint64_t value);
  /// A correctness check; a failed one fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Operations issued and operations that failed (errors, aborted
  /// updates, wrong results).
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const;
  std::string ToJson() const;

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> named_;
  std::vector<std::pair<std::string, double>> facts_;
  std::vector<std::pair<std::string, std::string>> hashes_;
  std::vector<CheckResult> checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Runs cfg.workload; false for an unknown workload name. Set-up errors
/// are reported as failed checks.
bool RunWorkload(const RunConfig& cfg, Report* report, TraceFile* trace);

}  // namespace perfbench

#endif  // PXQ_PERFBENCH_WORKLOADS_H_
