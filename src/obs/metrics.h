// Unified observability layer, part 1: the metrics registry.
//
// Three primitives, all safe to bump from lock-free hot paths:
//
//   Counter    cache-line-padded relaxed atomic (the same primitive the
//              index's probe counters always used — now shared so every
//              subsystem's counters speak one dialect and can be
//              registered into a MetricsRegistry without translation);
//   Gauge      a settable level (relaxed atomic);
//   Histogram  fixed power-of-two buckets over non-negative int64
//              samples (latency in nanoseconds by convention): Record()
//              is two relaxed fetch_adds, no locks, no allocation;
//              p50/p95/p99 are extracted from a snapshot by linear
//              interpolation inside the winning bucket (resolution is
//              the 2x bucket width — honest for latency trends, not for
//              microsecond forensics).
//
// MetricsRegistry is the per-database (or per-process, if you share
// one) name -> metric catalog. It can OWN metrics (AddCounter /
// AddGauge / AddHistogram: stable pointers, find-or-create by name) or
// merely REFERENCE metrics owned by a subsystem (RegisterCounter /
// RegisterHistogram): components keep their counters as members — the
// hot path stays a member-atomic increment, identical to before — and
// the registry exposes those same objects, so Database::Metrics(),
// `xq stats --json`, and the Prometheus exposition all read the ONE
// authoritative set of atomics. The registry is the ONLY stats read
// path: no subsystem keeps a typed stats struct beside it. Derived or
// mutex-guarded values (plan-cache hit/miss, lock counters, index
// structure sizes) register as callbacks: RegisterCallback for a single
// value, RegisterGroup for a family computed in one pass (e.g. the
// index's one structure walk) so a snapshot never takes the same lock
// twice.
//
// Registration is mutex-guarded and expected at construction/attach
// time; Snapshot()/PrometheusText() take the same mutex, then read the
// atomics relaxed — a snapshot is a consistent *catalog*, and each
// counter value is exact, but cross-counter skew is inherent (the hot
// paths are deliberately unsynchronized). The one ordering a snapshot
// does promise is its read order — see Snapshot().
#ifndef PXQ_OBS_METRICS_H_
#define PXQ_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pxq::obs {

/// Monotone event counter; padded so adjacent counters never share a
/// cache line (probe counters are bumped from many reader threads).
class alignas(64) Counter {
 public:
  // relaxed: pure event count — no reader orders other memory against
  // it; exactness per counter is preserved by fetch_add atomicity.
  void Inc(int64_t n = 1) const { v_.fetch_add(n, std::memory_order_relaxed); }
  // relaxed: see Inc.
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<int64_t> v_{0};
};

/// A settable level (sizes, occupancy).
class alignas(64) Gauge {
 public:
  // relaxed: observability level; nothing synchronizes-with a gauge.
  void Set(int64_t v) const { v_.store(v, std::memory_order_relaxed); }
  // relaxed: see Set.
  void Add(int64_t n) const { v_.fetch_add(n, std::memory_order_relaxed); }
  // relaxed: see Set.
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<int64_t> v_{0};
};

/// Lock-free fixed-bucket histogram. Bucket i counts samples in
/// [2^i, 2^(i+1)) (bucket 0 absorbs 0 and 1; the last bucket is
/// unbounded above). 40 buckets cover [0, ~9.1 min) at nanosecond
/// granularity.
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  static int BucketOf(int64_t v) {
    if (v <= 1) return 0;
    const int b = std::bit_width(static_cast<uint64_t>(v)) - 1;
    return b >= kBuckets ? kBuckets - 1 : b;
  }
  /// Inclusive lower bound of bucket i.
  static int64_t LowerBound(int i) {
    return i == 0 ? 0 : (int64_t{1} << i);
  }
  /// Exclusive upper bound of bucket i (last bucket: a nominal 2x).
  static int64_t UpperBound(int i) { return int64_t{1} << (i + 1); }

  void Record(int64_t v) const {
    if (v < 0) v = 0;
    // relaxed: bucket counts and sum are independent stat counters;
    // snapshots tolerate cross-field skew by design (see Snapshot::sum).
    counts_[static_cast<size_t>(BucketOf(v))].fetch_add(
        1, std::memory_order_relaxed);
    // relaxed: see above.
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::array<int64_t, kBuckets> counts{};
    int64_t count = 0;  // sum of counts (consistent with the buckets)
    int64_t sum = 0;    // approximate under concurrent writers

    /// Percentile in [0, 100], linearly interpolated inside the
    /// winning bucket; 0 when empty.
    double Percentile(double p) const {
      if (count <= 0) return 0;
      if (p < 0) p = 0;
      if (p > 100) p = 100;
      const double target = p / 100.0 * static_cast<double>(count);
      double cum = 0;
      for (int i = 0; i < kBuckets; ++i) {
        const auto c = static_cast<double>(counts[static_cast<size_t>(i)]);
        if (c == 0) continue;
        if (cum + c >= target) {
          const double frac = c == 0 ? 0 : (target - cum) / c;
          const auto lo = static_cast<double>(LowerBound(i));
          const auto hi = static_cast<double>(UpperBound(i));
          return lo + frac * (hi - lo);
        }
        cum += c;
      }
      return static_cast<double>(UpperBound(kBuckets - 1));
    }
    double p50() const { return Percentile(50); }
    double p95() const { return Percentile(95); }
    double p99() const { return Percentile(99); }
  };

  Snapshot Snap() const {
    Snapshot s;
    for (int i = 0; i < kBuckets; ++i) {
      // relaxed: stat reads; each bucket is exact, the set is skewed.
      s.counts[static_cast<size_t>(i)] =
          counts_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
      s.count += s.counts[static_cast<size_t>(i)];
    }
    // relaxed: see above.
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

  int64_t Count() const { return Snap().count; }
  // relaxed: stat read, same contract as Snap().
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  mutable std::array<std::atomic<int64_t>, kBuckets> counts_{};
  mutable std::atomic<int64_t> sum_{0};
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// A point-in-time copy of every registered metric, safe to use after
/// the registry (or the owning components) are gone.
struct MetricsSnapshot {
  struct Value {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    int64_t value = 0;             // counters and gauges
    Histogram::Snapshot hist;      // histograms only
  };
  std::vector<Value> values;  // sorted by name

  /// Scalar by name (counter/gauge value, histogram count); 0 if absent.
  int64_t ValueOf(const std::string& name) const;
  const Histogram::Snapshot* HistOf(const std::string& name) const;

  /// Machine-readable form with stable key names:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"p50":..,"p95":..,
  ///                          "p99":..}}}
  std::string ToJson() const;
  /// Prometheus text exposition (counters, gauges, and cumulative
  /// le-bucket histograms), scrape-ready for a future server front end.
  std::string ToPrometheus() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registry-owned metrics (find-or-create by name) ----------------
  Counter* AddCounter(const std::string& name);
  Gauge* AddGauge(const std::string& name);
  Histogram* AddHistogram(const std::string& name);

  // --- externally-owned metrics (component members; registry holds a
  // reference — the component must outlive snapshot calls) ------------
  void RegisterCounter(const std::string& name, const Counter* c);
  void RegisterHistogram(const std::string& name, const Histogram* h);

  // --- computed values -------------------------------------------------
  /// A single gauge computed on demand.
  void RegisterCallback(const std::string& name,
                        std::function<int64_t()> fn);
  /// A family of gauges computed in ONE pass (e.g. the index's one
  /// structure walk, or the plan cache's counters under one lock).
  using Group =
      std::function<void(std::vector<std::pair<std::string, int64_t>>*)>;
  void RegisterGroup(Group fn);

  /// Contract: entries (counters, gauges, callbacks, histograms and
  /// groups alike) are READ IN REGISTRATION ORDER. A component whose
  /// counters obey an invariant under a known increment order relies on
  /// it: register the counter bumped LAST first (e.g. an index family's
  /// declines before its probes — a probe bumps probes, then maybe
  /// declines — so declines <= probes in every snapshot). The returned
  /// values are sorted by name; the order is only the read order.
  MetricsSnapshot Snapshot() const;
  std::string PrometheusText() const { return Snapshot().ToPrometheus(); }

  /// Registrations so far; a group counts as one.
  size_t MetricCount() const;

 private:
  struct Entry {
    std::string name;  // empty for a group
    MetricKind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    std::function<int64_t()> fn;  // callback gauge
    Group group;                  // gauge family (kind kGauge)
  };

  Entry* Find(const std::string& name) PXQ_REQUIRES(mu_);

  mutable Mutex mu_;
  // Owned metrics live in deques for pointer stability across growth.
  // The deques themselves are guarded; the metrics they hold are
  // lock-free atomics, safe to bump through previously returned
  // pointers without mu_.
  std::deque<Counter> owned_counters_ PXQ_GUARDED_BY(mu_);
  std::deque<Gauge> owned_gauges_ PXQ_GUARDED_BY(mu_);
  std::deque<Histogram> owned_histograms_ PXQ_GUARDED_BY(mu_);
  /// Every registration, in registration order (the read order).
  std::vector<Entry> entries_ PXQ_GUARDED_BY(mu_);
};

}  // namespace pxq::obs

#endif  // PXQ_OBS_METRICS_H_
