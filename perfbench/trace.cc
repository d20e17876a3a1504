#include "trace.h"

#include <chrono>
#include <cstdio>
#include <ctime>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SpanLog::SpanLog(int thread)
    : base_(static_cast<uint64_t>(thread + 1) << 40) {
  spans_.reserve(1 << 16);
}

void TraceFile::AddSpans(const SpanLog& log) {
  spans_.insert(spans_.end(), log.spans().begin(), log.spans().end());
}

void TraceFile::AddMetrics(const pxq::obs::MetricsSnapshot& before,
                           const pxq::obs::MetricsSnapshot& after) {
  using pxq::obs::MetricKind;
  char buf[512];
  for (const auto& v : after.values) {
    switch (v.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof buf, "C\t%s\t%lld", v.name.c_str(),
                      static_cast<long long>(v.value -
                                             before.ValueOf(v.name)));
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof buf, "G\t%s\t%lld\t%lld", v.name.c_str(),
                      static_cast<long long>(v.value),
                      static_cast<long long>(v.value -
                                             before.ValueOf(v.name)));
        break;
      case MetricKind::kHistogram: {
        pxq::obs::Histogram::Snapshot d = v.hist;
        if (const auto* b = before.HistOf(v.name)) {
          d.count = 0;
          for (size_t i = 0; i < d.counts.size(); ++i) {
            d.counts[i] -= b->counts[i];
            d.count += d.counts[i];
          }
          d.sum -= b->sum;
        }
        std::snprintf(buf, sizeof buf, "H\t%s\t%lld\t%lld\t%.1f\t%.1f\t%.1f",
                      v.name.c_str(), static_cast<long long>(d.count),
                      static_cast<long long>(d.sum), d.Percentile(50),
                      d.Percentile(95), d.Percentile(99));
        break;
      }
    }
    records_.emplace_back(buf);
  }
}

void TraceFile::Fact(const std::string& name, double value) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "F\t%s\t%.17g", name.c_str(), value);
  records_.emplace_back(buf);
}

bool TraceFile::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const std::string& r : records_) std::fprintf(f, "%s\n", r.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f, "S\t%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.n));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
