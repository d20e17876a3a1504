// In-memory spans for the traced run. The benchmark wraps each of its
// own calls into a layer's public functions in a span (name, start,
// end, parent, request id); spans stay in per-thread logs until the run
// ends, then go to one trace file together with the window's deltas of
// the database's metrics. run.py derives every per-layer metric from
// that file.
//
// Trace file format: one tab-separated record per line.
//   S id parent request name start_ns end_ns n   a span (n = a count the
//                                                call produced, or -1)
//   C name delta                                  counter delta
//   G name value delta                            gauge at window end, and
//                                                its change over the window
//   H name count sum p50 p95 p99                  histogram delta (ns or
//                                                count, as the metric)
//   F name value                                  a fact of the run
#ifndef PXQ_PERFBENCH_TRACE_H_
#define PXQ_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Monotonic nanoseconds.
int64_t NowNs();
/// CPU time of the calling thread, in nanoseconds.
int64_t ThreadCpuNs();

/// One moment, or the span between two, in wall time and in the calling
/// thread's CPU time.
struct Stamp {
  int64_t wall = 0;
  int64_t cpu = 0;
  static Stamp Now() { return {NowNs(), ThreadCpuNs()}; }
  Stamp operator-(const Stamp& o) const { return {wall - o.wall, cpu - o.cpu}; }
  Stamp& operator+=(const Stamp& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

struct Span {
  const char* name;  // static string: "<layer>.<call>"
  uint64_t id;
  uint64_t parent;   // 0 = root of its request
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
  int64_t n;
};

/// The spans of one thread. Ids are unique across logs.
class SpanLog {
 public:
  explicit SpanLog(int thread);
  /// A fresh id, for a span whose children are recorded before it ends.
  uint64_t NewId() { return base_ | next_++; }
  void Add(uint64_t id, const char* name, uint64_t parent, uint64_t request,
           int64_t start_ns, int64_t end_ns, int64_t n = -1) {
    if (keep_) {
      spans_.push_back({name, id, parent, request, start_ns, end_ns, n});
    }
  }
  /// Whether spans are kept; a client with a high request rate keeps
  /// those of every k-th request only, to bound the trace's size.
  void Keep(bool keep) { keep_ = keep; }
  /// Records a span that has no children; returns its id.
  uint64_t Leaf(const char* name, uint64_t parent, uint64_t request,
                int64_t start_ns, int64_t end_ns, int64_t n = -1) {
    const uint64_t id = NewId();
    Add(id, name, parent, request, start_ns, end_ns, n);
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t base_;
  uint64_t next_ = 1;
  bool keep_ = true;
  std::vector<Span> spans_;
};

/// Everything one traced run writes out.
class TraceFile {
 public:
  void AddSpans(const SpanLog& log);
  /// Window deltas of every registered metric: `after` minus `before`.
  void AddMetrics(const pxq::obs::MetricsSnapshot& before,
                  const pxq::obs::MetricsSnapshot& after);
  void Fact(const std::string& name, double value);
  /// Writes the file; false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> records_;
};

}  // namespace perfbench

#endif  // PXQ_PERFBENCH_TRACE_H_
