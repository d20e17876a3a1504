#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace pxq::obs {

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  *out += buf;
}

}  // namespace

int64_t MetricsSnapshot::ValueOf(const std::string& name) const {
  for (const Value& v : values) {
    if (v.name == name) {
      return v.kind == MetricKind::kHistogram ? v.hist.count : v.value;
    }
  }
  return 0;
}

const Histogram::Snapshot* MetricsSnapshot::HistOf(
    const std::string& name) const {
  for (const Value& v : values) {
    if (v.name == name && v.kind == MetricKind::kHistogram) return &v.hist;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  for (int pass = 0; pass < 3; ++pass) {
    const MetricKind want = pass == 0   ? MetricKind::kCounter
                            : pass == 1 ? MetricKind::kGauge
                                        : MetricKind::kHistogram;
    if (pass > 0) out += ",";
    out += pass == 0   ? "\"counters\":{"
           : pass == 1 ? "\"gauges\":{"
                       : "\"histograms\":{";
    bool first = true;
    for (const Value& v : values) {
      if (v.kind != want) continue;
      if (!first) out += ",";
      first = false;
      AppendJsonString(&out, v.name);
      out += ":";
      if (want != MetricKind::kHistogram) {
        AppendInt(&out, v.value);
      } else {
        out += "{\"count\":";
        AppendInt(&out, v.hist.count);
        out += ",\"sum\":";
        AppendInt(&out, v.hist.sum);
        out += ",\"p50\":";
        AppendDouble(&out, v.hist.p50());
        out += ",\"p95\":";
        AppendDouble(&out, v.hist.p95());
        out += ",\"p99\":";
        AppendDouble(&out, v.hist.p99());
        out += "}";
      }
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const Value& v : values) {
    switch (v.kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + v.name + " counter\n" + v.name + " ";
        AppendInt(&out, v.value);
        out += "\n";
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + v.name + " gauge\n" + v.name + " ";
        AppendInt(&out, v.value);
        out += "\n";
        break;
      case MetricKind::kHistogram: {
        out += "# TYPE " + v.name + " histogram\n";
        int64_t cum = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          cum += v.hist.counts[static_cast<size_t>(i)];
          // Collapse trailing empty buckets into +Inf to keep the
          // exposition readable; always emit a bucket that has data.
          if (v.hist.counts[static_cast<size_t>(i)] == 0 &&
              i != Histogram::kBuckets - 1) {
            continue;
          }
          out += v.name + "_bucket{le=\"";
          if (i == Histogram::kBuckets - 1) {
            out += "+Inf";
          } else {
            AppendInt(&out, Histogram::UpperBound(i));
          }
          out += "\"} ";
          AppendInt(&out, cum);
          out += "\n";
        }
        out += v.name + "_sum ";
        AppendInt(&out, v.hist.sum);
        out += "\n" + v.name + "_count ";
        AppendInt(&out, v.hist.count);
        out += "\n";
        break;
      }
    }
  }
  return out;
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name) {
  for (Entry& e : entries_) {
    if (!e.group && e.name == name) return &e;
  }
  return nullptr;
}

Counter* MetricsRegistry::AddCounter(const std::string& name) {
  MutexLock lock(&mu_);
  if (Entry* e = Find(name)) {
    // Find-or-create: concurrent registrants share the counter (only
    // sensible for registry-owned metrics — external registration of a
    // taken name is a programming error surfaced by the const member).
    return const_cast<Counter*>(e->counter);
  }
  owned_counters_.emplace_back();
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.counter = &owned_counters_.back();
  entries_.push_back(std::move(e));
  return &owned_counters_.back();
}

Gauge* MetricsRegistry::AddGauge(const std::string& name) {
  MutexLock lock(&mu_);
  if (Entry* e = Find(name)) return const_cast<Gauge*>(e->gauge);
  owned_gauges_.emplace_back();
  Entry e;
  e.name = name;
  e.kind = MetricKind::kGauge;
  e.gauge = &owned_gauges_.back();
  entries_.push_back(std::move(e));
  return &owned_gauges_.back();
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  if (Entry* e = Find(name)) return const_cast<Histogram*>(e->histogram);
  owned_histograms_.emplace_back();
  Entry e;
  e.name = name;
  e.kind = MetricKind::kHistogram;
  e.histogram = &owned_histograms_.back();
  entries_.push_back(std::move(e));
  return &owned_histograms_.back();
}

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      const Counter* c) {
  MutexLock lock(&mu_);
  if (Find(name) != nullptr) return;  // first registrant wins
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.counter = c;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const Histogram* h) {
  MutexLock lock(&mu_);
  if (Find(name) != nullptr) return;
  Entry e;
  e.name = name;
  e.kind = MetricKind::kHistogram;
  e.histogram = h;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       std::function<int64_t()> fn) {
  MutexLock lock(&mu_);
  if (Find(name) != nullptr) return;
  Entry e;
  e.name = name;
  e.kind = MetricKind::kGauge;
  e.fn = std::move(fn);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::RegisterGroup(Group fn) {
  MutexLock lock(&mu_);
  Entry e;
  e.kind = MetricKind::kGauge;
  e.group = std::move(fn);
  entries_.push_back(std::move(e));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  snap.values.reserve(entries_.size());
  // Registration order is the read order (the Snapshot() contract).
  for (const Entry& e : entries_) {
    if (e.group) {
      std::vector<std::pair<std::string, int64_t>> vals;
      e.group(&vals);
      for (auto& [name, value] : vals) {
        MetricsSnapshot::Value v;
        v.name = std::move(name);
        v.kind = MetricKind::kGauge;
        v.value = value;
        snap.values.push_back(std::move(v));
      }
      continue;
    }
    MetricsSnapshot::Value v;
    v.name = e.name;
    v.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        v.value = e.counter->Value();
        break;
      case MetricKind::kGauge:
        v.value = e.fn ? e.fn() : e.gauge->Value();
        break;
      case MetricKind::kHistogram:
        v.hist = e.histogram->Snap();
        break;
    }
    snap.values.push_back(std::move(v));
  }
  std::sort(snap.values.begin(), snap.values.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

size_t MetricsRegistry::MetricCount() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

}  // namespace pxq::obs
