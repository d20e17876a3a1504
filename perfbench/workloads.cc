#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "database.h"
#include "inputs.h"
#include "storage/read_only_store.h"
#include "storage/shredder.h"
#include "xmark/queries.h"
#include "xpath/compiler.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/reference_eval.h"
#include "xupdate/parser.h"
#include "yardstick.h"

namespace perfbench {

using pxq::Database;
using pxq::PreId;
using pxq::Status;
using pxq::StatusOr;
using pxq::storage::PagedStore;

// ------------------------------------------------------------ report

void Report::Hash(const std::string& name, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  hashes_.emplace_back(name, buf);
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(),
                        detail.c_str());
}

bool Report::correct() const {
  if (failed_ != 0 || attempted_ <= 0) return false;
  for (const CheckResult& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Report::Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(ms[i].name) + ": {\"value\": " +
           JsonNumber(ms[i].value) + ", \"unit\": " +
           JsonString(ms[i].unit);
    if (ms[i].samples >= 0) {
      out += ", \"samples\": " + std::to_string(ms[i].samples);
    }
    out += "}";
  }
  return out + "}";
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"end_to_end\": " + MetricsJson(end_to_end_);
  out += ", \"named\": " + MetricsJson(named_);
  out += ", \"facts\": {";
  for (size_t i = 0; i < facts_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(facts_[i].first) + ": " + JsonNumber(facts_[i].second);
  }
  out += "}, \"hashes\": {";
  for (size_t i = 0; i < hashes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(hashes_[i].first) + ": " +
           JsonString(hashes_[i].second);
  }
  out += "}, \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": " + JsonString(checks_[i].name) +
           ", \"ok\": " + (checks_[i].ok ? "true" : "false") +
           ", \"detail\": " + JsonString(checks_[i].detail) + "}";
  }
  return out + "]}";
}

namespace {

// ----------------------------------------------------------- helpers

/// Linear-interpolated percentile p in [0, 100]; 0 for no samples.
double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Set-up repetitions: setup_s is their median.
constexpr int kSetupReps = 7;

/// Traced readers keep the spans of every k-th query, to bound the
/// trace's size; the others take the same split calls, so every query
/// pays the same tracing overhead.
constexpr int64_t kReaderTraceEvery = 8;

/// Latencies of one high-rate client: a uniform sample of at most
/// kCapacity of them (reservoir sampling), so the benchmark's own memory
/// does not grow with throughput and peak_rss_mb stays the program's.
class Samples {
 public:
  static constexpr size_t kCapacity = 1 << 18;
  explicit Samples(uint64_t seed) : rng_(seed) { values_.reserve(kCapacity); }
  void Add(int64_t v) {
    ++count_;
    if (values_.size() < kCapacity) {
      values_.push_back(v);
    } else if (const uint64_t j = rng_.Below(static_cast<uint64_t>(count_));
               j < kCapacity) {
      values_[j] = v;
    }
  }
  const std::vector<int64_t>& values() const { return values_; }
  int64_t count() const { return count_; }

 private:
  Rng rng_;
  std::vector<int64_t> values_;
  int64_t count_ = 0;
};

/// The times of one kind of operation in a run, two ways: the wall
/// time as measured (raw), and the benchmark thread's CPU time scaled
/// into reference-host time (scaled). CPU time leaves out the time the
/// thread did not run: the host's steal, preemption, and waits for the
/// disk. Add files an operation as it ends; Scale applies the factor of
/// the Yardstick measurement that closes the segment (Measure) to the
/// operations added since its last call, so each is scaled by the
/// host's speed of its own moment.
class ScaledTimes {
 public:
  /// Segments with fewer operations give no p99 (MedianSegmentP99).
  static constexpr size_t kMinSegmentOps = 1000;

  explicit ScaledTimes(uint64_t seed) : raw_(seed), scaled_(seed) {}
  void Add(const Stamp& duration) { segment_.push_back(duration); }
  /// Operations added since the last Scale.
  size_t pending() const { return segment_.size(); }
  void Scale(double factor) {
    std::vector<int64_t> scaled;
    for (const Stamp& d : segment_) {
      raw_.Add(d.wall);
      scaled.push_back(std::llround(static_cast<double>(d.cpu) * factor));
      scaled_.Add(scaled.back());
    }
    if (scaled.size() >= kMinSegmentOps) {
      segment_p99s_.push_back(Percentile(std::move(scaled), 99));
    }
    segment_.clear();
  }
  /// The same reservoir draws for both: they hold the same operations.
  const Samples& raw() const { return raw_; }
  const Samples& scaled() const { return scaled_; }
  /// The median over the segments of each segment's scaled p99. A burst
  /// of load on the host that the segment's factor averages away slows
  /// the operations it hits, and a p99 over the whole run picks exactly
  /// those; the median of per-segment p99s leaves out the segments a
  /// burst hit.
  double MedianSegmentP99() const { return Median(segment_p99s_); }

 private:
  std::vector<Stamp> segment_;  // durations
  Samples raw_;
  Samples scaled_;
  std::vector<double> segment_p99s_;
};

int64_t ApplyNodes(const pxq::xupdate::ApplyStats& s) {
  return s.targets + s.nodes_inserted + s.nodes_deleted + s.value_updates;
}

// ----------------------------------------------------- query answers

/// A query result reduced to its size and a hash of its content.
struct Answer {
  bool ok = false;
  int64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Answer& o) const {
    return ok == o.ok && count == o.count && hash == o.hash;
  }
};

Answer Digest(const std::vector<PreId>& nodes) {
  Answer a{true, static_cast<int64_t>(nodes.size()), kFnvBasis};
  for (PreId p : nodes) {
    a.hash = Fnv1a(std::string_view(reinterpret_cast<const char*>(&p),
                                    sizeof p),
                   a.hash);
  }
  return a;
}

Answer Digest(const std::vector<std::string>& strs) {
  Answer a{true, static_cast<int64_t>(strs.size()), kFnvBasis};
  for (const std::string& s : strs) a.hash = Fnv1a(s + '\x1f', a.hash);
  return a;
}

/// A query text split the way QueryStrings evaluates it: the node path,
/// and the trailing attribute step whose values it extracts, if any. The
/// reference evaluator takes only node paths.
struct Prepared {
  std::string node_text;
  std::optional<pxq::xpath::NodeTest> attr;
};

std::vector<Prepared> Prepare(const QueryMix& mix) {
  std::vector<Prepared> out;
  for (const QueryText& q : mix.texts) {
    Prepared p{q.text, std::nullopt};
    auto path = pxq::xpath::ParsePath(q.text);
    if (path.ok() && !path->steps.empty() &&
        path->steps.back().axis == pxq::xpath::Axis::kAttribute) {
      p.attr = path->steps.back().test;
      p.node_text = q.text.substr(0, q.text.rfind("/@"));
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// Strings of `nodes` as QueryStrings returns them: the values of the
/// trailing attribute step `attr`, or the nodes' string-values.
std::vector<std::string> Materialize(
    const pxq::xpath::Executor<PagedStore>& ex,
    const std::vector<PreId>& nodes, const pxq::xpath::NodeTest* attr) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (PreId n : nodes) {
    if (attr != nullptr) {
      if (auto v = ex.AttrValue(n, *attr)) out.push_back(std::move(*v));
    } else {
      out.push_back(ex.StringValue(n));
    }
  }
  return out;
}

/// Expected answers from the brute-force reference evaluator, computed
/// on up to four threads under the database's read lock.
std::vector<Answer> ReferenceAnswers(Database* db, const QueryMix& mix,
                                     const std::vector<Prepared>& prep) {
  std::vector<Answer> out(mix.texts.size());
  std::atomic<size_t> next{0};
  const unsigned threads =
      std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      db->txn_manager().Read([&](const PagedStore& s) {
        pxq::xpath::ReferenceEvaluator<PagedStore> ref(s);
        pxq::xpath::Executor<PagedStore> strings(s, nullptr);
        // Last texts first: the costly scans sit at the end of a mix.
        for (size_t k = next++; k < out.size(); k = next++) {
          const size_t i = out.size() - 1 - k;
          auto path = pxq::xpath::ParsePath(prep[i].node_text);
          if (!path.ok()) continue;
          auto nodes = ref.Eval(*path);
          if (!nodes.ok()) continue;
          out[i] = mix.texts[i].strings
                       ? Digest(Materialize(strings, *nodes,
                                            prep[i].attr ? &*prep[i].attr
                                                         : nullptr))
                       : Digest(*nodes);
        }
        return 0;
      });
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

/// One query through the public API (Database::Query / QueryStrings).
Answer RunQuery(Database* db, const QueryText& q, Stamp* end) {
  Answer a;
  if (q.strings) {
    auto r = db->QueryStrings(q.text);
    *end = Stamp::Now();
    if (r.ok()) a = Digest(*r);
  } else {
    auto r = db->Query(q.text);
    *end = Stamp::Now();
    if (r.ok()) a = Digest(*r);
  }
  return a;
}

/// The plan of `text` from the database's plan cache, compiled and
/// inserted on a miss: the lookup Evaluator::EvalStrings makes, keyed on
/// the full text.
StatusOr<std::shared_ptr<const pxq::xpath::Plan>> CachedPlan(
    Database* db, const PagedStore& s, const std::string& text) {
  const pxq::index::IndexManager* env = db->index_manager();
  const auto pool_gen = static_cast<uint64_t>(s.pools().qname_count());
  const uint64_t env_fp = pxq::xpath::PlanEnvFingerprint(env);
  const uint64_t epoch = env != nullptr ? env->stats_epoch() : 0;
  pxq::xpath::PlanCache& cache = db->plan_cache();
  if (auto plan = cache.Lookup(text, pool_gen, env_fp, epoch)) return plan;
  const int64_t t0 = NowNs();
  auto compiled = pxq::xpath::CompileText(text, s.pools(), env);
  if (!compiled.ok()) return compiled.status();
  auto plan =
      std::make_shared<const pxq::xpath::Plan>(std::move(compiled).value());
  cache.RecordCompile(NowNs() - t0);
  cache.Insert(text, plan);
  return plan;
}

/// The same query split into the public calls Database::Query and
/// QueryStrings are built from, one span each: txn_manager().Read, the
/// wait to enter it, evaluation with the database's index and plan cache
/// (xpath::EvaluatePath, or for QueryStrings the cached plan of the full
/// text run by the executor), and string extraction.
Answer RunQueryTraced(Database* db, const QueryText& q, SpanLog* log,
                      Stamp* end) {
  const uint64_t req = log->NewId();
  const uint64_t read = log->NewId();
  const int64_t t0 = NowNs();
  Answer a;
  db->txn_manager().Read([&](const PagedStore& s) {
    const int64_t entered = NowNs();
    log->Leaf("txn.read_lock", read, req, t0, entered);
    if (q.strings) {
      pxq::xpath::Executor<PagedStore> ex(s, db->index_manager());
      auto plan = CachedPlan(db, s, q.text);
      StatusOr<std::vector<PreId>> nodes =
          plan.ok() ? ex.RunOps(**plan, (*plan)->path.absolute
                                            ? std::vector<PreId>{}
                                            : std::vector<PreId>{s.Root()})
                    : StatusOr<std::vector<PreId>>(plan.status());
      const int64_t e1 = NowNs();
      log->Leaf("xpath.evaluate", read, req, entered, e1,
                nodes.ok() ? static_cast<int64_t>(nodes->size()) : -1);
      if (!nodes.ok()) return 0;
      const auto& attr = (*plan)->trailing_attr;
      std::vector<std::string> strs =
          Materialize(ex, *nodes, attr ? &attr->test : nullptr);
      log->Leaf("xpath.materialize", read, req, e1, NowNs());
      a = Digest(strs);
    } else {
      auto nodes = pxq::xpath::EvaluatePath(s, q.text, db->index_manager(),
                                            &db->plan_cache());
      log->Leaf("xpath.evaluate", read, req, entered, NowNs(),
                nodes.ok() ? static_cast<int64_t>(nodes->size()) : -1);
      if (nodes.ok()) a = Digest(*nodes);
    }
    return 0;
  });
  *end = Stamp::Now();
  log->Add(read, "txn.read", req, req, t0, end->wall);
  log->Add(req, "db.query", 0, req, t0, end->wall);
  return a;
}

/// Cold ParsePath and CompileText of every text of the mix, one span
/// each (the plan cache is not touched).
void ParseCompileSpans(Database* db, const QueryMix& mix, SpanLog* log) {
  db->txn_manager().Read([&](const PagedStore& s) {
    for (const QueryText& q : mix.texts) {
      const int64_t t0 = NowNs();
      auto path = pxq::xpath::ParsePath(q.text);
      const int64_t t1 = NowNs();
      auto plan = pxq::xpath::CompileText(q.text, s.pools(),
                                          db->index_manager());
      const int64_t t2 = NowNs();
      const uint64_t req = log->NewId();
      log->Leaf("xpath.parse", 0, req, t0, t1, path.ok() ? 1 : 0);
      log->Leaf("xpath.compile", 0, req, t1, t2, plan.ok() ? 1 : 0);
    }
    return 0;
  });
}

// ---------------------------------------------------------- updates

/// Database::Update split into the public calls it is built from, with
/// its retry rule: Begin, ParseXUpdate, ApplyUpdates, Commit; retry on
/// Conflict/Aborted up to kUpdateRetries times, Update's default.
constexpr int kUpdateRetries = 5;

StatusOr<pxq::xupdate::ApplyStats> UpdateTraced(Database* db,
                                                const std::string& doc,
                                                SpanLog* log) {
  const uint64_t req = log->NewId();
  const int64_t t0 = NowNs();
  StatusOr<pxq::xupdate::ApplyStats> out =
      Status::Aborted("update failed after retries");
  for (int attempt = 0; attempt <= kUpdateRetries; ++attempt) {
    const int64_t b0 = NowNs();
    auto t = db->txn_manager().Begin();
    log->Leaf("txn.begin", req, req, b0, NowNs());
    if (!t.ok()) {
      out = t.status();
      break;
    }
    pxq::txn::Transaction* txn = t->get();
    const int64_t p0 = NowNs();
    auto ups = pxq::xupdate::ParseXUpdate(doc, &txn->store()->pools());
    const int64_t p1 = NowNs();
    log->Leaf("xupdate.parse", req, req, p0, p1);
    Status failed = ups.status();
    pxq::xupdate::ApplyStats stats;
    if (ups.ok()) {
      auto applied = pxq::xupdate::ApplyUpdates(txn->store(), *ups);
      log->Leaf("xupdate.apply", req, req, p1, NowNs(),
                applied.ok() ? ApplyNodes(*applied) : -1);
      if (applied.ok()) {
        stats = *applied;
      } else {
        failed = applied.status();
      }
    }
    if (!failed.ok()) {
      txn->Abort().ok();
      if (failed.IsConflict()) {
        out = Status::Aborted("update failed after retries: " +
                              failed.ToString());
        continue;
      }
      out = failed;
      break;
    }
    const int64_t c0 = NowNs();
    const Status c = txn->Commit();
    log->Leaf("txn.commit", req, req, c0, NowNs(), c.ok() ? 1 : 0);
    if (c.ok()) {
      out = stats;
      break;
    }
    out = Status::Aborted("update failed after retries: " + c.ToString());
    if (!c.IsAborted() && !c.IsConflict()) {
      out = c;
      break;
    }
  }
  log->Add(req, "db.update", 0, req, t0, NowNs());
  return out;
}

StatusOr<pxq::xupdate::ApplyStats> Update(Database* db,
                                          const std::string& doc,
                                          SpanLog* log) {
  return log != nullptr ? UpdateTraced(db, doc, log) : db->Update(doc);
}

// ----------------------------------------------------------- set-up

/// Set-up as CreateFromXml does it, one public call per span
/// (Generate, ShredXml, PagedStore::Build, IndexManager::Rebuild), on a
/// throwaway store: the per-layer split of setup_s.
void SetUpSpans(double factor, bool index, SpanLog* log, TraceFile* tf) {
  const uint64_t req = log->NewId();
  const int64_t t0 = NowNs();
  const std::string xml = GenerateXml(factor);
  const int64_t t1 = NowNs();
  log->Leaf("storage.generate", req, req, t0, t1);
  auto dense = pxq::storage::ShredXml(xml);
  const int64_t t2 = NowNs();
  log->Leaf("storage.shred", req, req, t1, t2);
  if (!dense.ok()) return;
  tf->Fact("nodes", static_cast<double>(dense->node_count()));
  tf->Fact("xml_bytes", static_cast<double>(xml.size()));
  auto store = PagedStore::Build(std::move(dense).value(),
                                 PagedStore::Config());
  const int64_t t3 = NowNs();
  log->Leaf("storage.build", req, req, t2, t3);
  if (!store.ok()) return;
  int64_t t4 = t3;
  if (index) {
    pxq::index::IndexManager im{pxq::index::IndexConfig()};
    im.Rebuild(**store);
    t4 = NowNs();
    log->Leaf("index.rebuild", req, req, t3, t4);
  }
  log->Add(req, "db.setup", 0, req, t0, t4);
}

/// Serialized size of `store` (the checkpoint format), one span.
template <typename Save>
void SnapshotSpan(const std::string& path, Save save, SpanLog* log,
                  TraceFile* tf) {
  const int64_t t0 = NowNs();
  const Status s = save(path);
  log->Leaf("storage.snapshot", 0, log->NewId(), t0, NowNs());
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  if (s.ok() && !ec) tf->Fact("snapshot_bytes", static_cast<double>(bytes));
  std::filesystem::remove(path, ec);
}

struct DbSetup {
  std::unique_ptr<Database> db;
  double setup_s = 0;      // median, in reference-host seconds
  double setup_raw_s = 0;  // median, as measured
};

/// Generate + CreateFromXml, kSetupReps times (a durable data directory
/// is emptied before each), each followed by a Yardstick measurement;
/// keeps the last database.
bool SetUpDatabase(double factor, const Database::Options& opts,
                   Yardstick* ys, Report* rep, DbSetup* out) {
  std::vector<double> times, raw;
  std::string xml;
  for (int i = 0; i < kSetupReps; ++i) {
    out->db.reset();
    if (!opts.data_dir.empty()) {
      std::filesystem::remove_all(opts.data_dir);
      std::filesystem::create_directories(opts.data_dir);
    }
    const Stamp t0 = Stamp::Now();
    xml = GenerateXml(factor);
    auto db = Database::CreateFromXml(xml, opts);
    const Stamp t1 = Stamp::Now();
    raw.push_back(Seconds(t1.wall - t0.wall));
    times.push_back(Seconds(t1.cpu - t0.cpu) * ys->Measure());
    if (!db.ok()) {
      rep->Check("setup", false, db.status().ToString());
      return false;
    }
    out->db = std::move(db).value();
  }
  out->setup_s = Median(times);
  out->setup_raw_s = Median(raw);
  rep->Fact("xml_bytes", static_cast<double>(xml.size()));
  rep->Fact("nodes", static_cast<double>(out->db->store().used_count()));
  rep->Hash("xml", Fnv1a(xml));
  return true;
}

void TracedSetUp(const RunConfig& cfg, double factor, Database* db,
                 SpanLog* log, TraceFile* tf) {
  SetUpSpans(factor, true, log, tf);
  SnapshotSpan(
      cfg.out_dir + "/store.snapshot",
      [&](const std::string& path) {
        return db->txn_manager().Read([&](const PagedStore& s) {
          return s.SaveSnapshot(path);
        });
      },
      log, tf);
}

/// The closing end-to-end metrics every workload reports: setup_s in
/// reference-host seconds, and as measured under its named metric.
void Finish(Report* rep, const Yardstick& ys, double setup_s,
            double setup_raw_s) {
  rep->EndToEnd("setup_s", setup_s, "s");
  rep->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  rep->Named("setup_s", setup_raw_s, "s");
  rep->Named("yardstick_ms", ys.MedianNs() / 1e6, "ms", ys.chunks());
  rep->Named("peak_rss_mb", PeakRssMb(), "MB");
  rep->Named("fail_ratio",
             rep->attempted() > 0 ? static_cast<double>(rep->failed()) /
                                        static_cast<double>(rep->attempted())
                                  : 1.0,
             "ratio");
}

// -------------------------------------------------------- xmark_read

bool XmarkRead(const RunConfig& cfg, Report* rep, TraceFile* tf) {
  Yardstick ys;
  DbSetup setup;
  if (!SetUpDatabase(kReadFactor, Database::Options(), &ys, rep, &setup)) {
    return true;
  }
  Database* db = setup.db.get();
  const QueryMix mix =
      XmarkReadMix(pxq::xmark::CountsForFactor(kReadFactor));
  const std::vector<Prepared> prep = Prepare(mix);
  rep->Hash("queries", HashQueryStream(mix, cfg.seed));
  rep->Fact("query_texts", static_cast<double>(mix.texts.size()));
  rep->Fact("lookup_texts", static_cast<double>(mix.zipf_ranks));
  rep->Fact("plan_cache_capacity", 512);

  const int64_t ref_start = NowNs();
  const std::vector<Answer> expected = ReferenceAnswers(db, mix, prep);
  rep->Fact("reference_s", Seconds(NowNs() - ref_start));
  int64_t bad_refs = 0;
  for (const Answer& a : expected) bad_refs += a.ok ? 0 : 1;
  rep->Check("reference answers", bad_refs == 0,
             std::to_string(bad_refs) + " texts the reference rejected");

  std::unique_ptr<SpanLog> log;
  if (cfg.trace) {
    log = std::make_unique<SpanLog>(0);
    TracedSetUp(cfg, kReadFactor, db, log.get(), tf);
    ParseCompileSpans(db, mix, log.get());
  }

  QueryStream stream(mix, ReaderSeed(cfg.seed));
  int64_t failed = 0;
  int64_t count = 0;
  // One query; returns the time spent checking its result, which the
  // throughput leaves out.
  auto one = [&](ScaledTimes* lat) -> int64_t {
    const size_t i = stream.Next();
    if (log) log->Keep(lat != nullptr && count % kReaderTraceEvery == 0);
    Stamp end;
    const Stamp begin = Stamp::Now();
    const Answer a = log ? RunQueryTraced(db, mix.texts[i], log.get(), &end)
                         : RunQuery(db, mix.texts[i], &end);
    if (lat != nullptr) lat->Add(end - begin);
    ++count;
    if (!(a == expected[i])) ++failed;
    return NowNs() - end.wall;
  };
  for (int i = 0; i < 1000; ++i) one(nullptr);  // warm-up

  ScaledTimes lat(SubSeed(cfg.seed, 20));
  const auto before = db->Metrics();
  ys.Measure();  // the first segment starts here
  const int64_t measuring = ys.spent_ns();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(cfg.seconds * 1e9);
  int64_t checking = 0;
  while (NowNs() < end) {
    checking += one(&lat);
    // A segment closes after kEveryNs, or later on a host so slow that
    // it holds fewer queries than a p99 needs.
    if (ys.Due() && lat.pending() >= ScaledTimes::kMinSegmentOps) {
      lat.Scale(ys.Measure());
    }
  }
  lat.Scale(ys.Measure());
  const int64_t window =
      NowNs() - start - checking - (ys.spent_ns() - measuring);
  const auto after = db->Metrics();
  rep->Count(count, failed);

  const int64_t n = lat.raw().count();
  const double qps = static_cast<double>(n) / Seconds(window);
  rep->Named("query_p50_us", Percentile(lat.raw().values(), 50) / 1e3, "us",
             n);
  rep->Named("query_p99_us", Percentile(lat.raw().values(), 99) / 1e3, "us",
             n);
  rep->Named("queries_per_s", qps, "1/s", n);
  rep->EndToEnd("op_p50_cpu_us",
                Percentile(lat.scaled().values(), 50) / 1e3, "us");
  rep->EndToEnd("op_tail_cpu_us", lat.MedianSegmentP99() / 1e3, "us");
  rep->Check("timed results match the reference", failed == 0,
             std::to_string(failed) + " of " + std::to_string(count) +
                 " results differ");
  if (tf != nullptr) {
    tf->AddMetrics(before, after);
    tf->Fact("queries", static_cast<double>(n));
    tf->AddSpans(*log);
  }
  Finish(rep, ys, setup.setup_s, setup.setup_raw_s);
  return true;
}

// ---------------------------------------------------- update_durable

/// Edits recovery has to redo: committed after the last checkpoint.
constexpr int kTailEdits = 10;

bool UpdateDurable(const RunConfig& cfg, Report* rep, TraceFile* tf) {
  Database::Options opts;
  opts.data_dir = cfg.out_dir + "/data";
  Yardstick ys;
  DbSetup setup;
  if (!SetUpDatabase(kWriteFactor, opts, &ys, rep, &setup)) return true;
  const auto counts = pxq::xmark::CountsForFactor(kWriteFactor);
  const HotSet hot = PickHotSet(cfg.seed, counts, kHotPerKind);
  rep->Hash("xupdates", HashEditStream(cfg.seed, hot));
  rep->Fact("bulk_every", kBulkEvery);
  rep->Fact("checkpoint_every", kCheckpointEvery);

  std::unique_ptr<SpanLog> log;
  if (cfg.trace) {
    log = std::make_unique<SpanLog>(0);
    TracedSetUp(cfg, kWriteFactor, setup.db.get(), log.get(), tf);
  }
  Database* db = setup.db.get();

  // What the acknowledged writes left behind.
  std::map<int64_t, std::string> names;
  std::map<std::pair<int64_t, std::string>, bool> bidders;
  std::string current;
  EditStream stream(cfg.seed, hot.persons, hot.auctions, kBulkEvery);
  ScaledTimes single(SubSeed(cfg.seed, 21));
  std::vector<int64_t> bulk, ckpt;
  int64_t attempted = 0, failed = 0, commits = 0;
  auto edit = [&](bool timed) {
    const Edit e = stream.Next();
    const Stamp t0 = Stamp::Now();
    auto r = Update(db, e.doc, log.get());
    const Stamp t1 = Stamp::Now();
    ++attempted;
    if (!r.ok()) {
      ++failed;
      std::fprintf(stderr, "update failed: %s\n",
                   r.status().ToString().c_str());
      return false;
    }
    ++commits;
    if (timed && e.kind == Edit::Kind::kBulk) {
      bulk.push_back(t1.wall - t0.wall);
    }
    if (timed && e.kind != Edit::Kind::kBulk) single.Add(t1 - t0);
    switch (e.kind) {
      case Edit::Kind::kName: names[e.target] = e.value; break;
      case Edit::Kind::kAppend: bidders[{e.target, e.value}] = true; break;
      case Edit::Kind::kRemove: bidders[{e.target, e.value}] = false; break;
      case Edit::Kind::kBulk: current = e.value; break;
    }
    return true;
  };
  auto checkpoint = [&] {
    const int64_t t0 = NowNs();
    const Status s = db->Checkpoint();
    const int64_t t1 = NowNs();
    if (log) log->Leaf("txn.checkpoint", 0, log->NewId(), t0, t1);
    ++attempted;
    if (!s.ok()) ++failed;
    ckpt.push_back(t1 - t0);
  };

  const auto before = db->Metrics();
  ys.Measure();  // the first segment starts here
  const int64_t measuring = ys.spent_ns();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(cfg.seconds * 1e9);
  while (NowNs() < end) {
    if (edit(true) && commits % kCheckpointEvery == 0) checkpoint();
    if (ys.Due()) single.Scale(ys.Measure());
  }
  single.Scale(ys.Measure());
  const int64_t window = NowNs() - start - (ys.spent_ns() - measuring);
  const int64_t timed_commits = commits;
  const auto after = db->Metrics();
  checkpoint();
  for (int i = 0; i < kTailEdits; ++i) edit(false);

  const double wal_bytes =
      static_cast<double>(after.ValueOf("pxq_wal_appended_bytes_total") -
                          before.ValueOf("pxq_wal_appended_bytes_total"));
  rep->Fact("wal_bytes_per_commit",
            timed_commits > 0 ? wal_bytes / static_cast<double>(timed_commits)
                              : 0);
  if (tf != nullptr) {
    tf->AddMetrics(before, after);
    tf->Fact("commits", static_cast<double>(timed_commits));
  }
  setup.db.reset();  // close

  const int64_t o0 = NowNs();
  auto reopened = Database::Open(opts);
  const int64_t o1 = NowNs();
  if (log) log->Leaf("db.open", 0, log->NewId(), o0, o1);
  if (!reopened.ok()) {
    rep->Check("reopen", false, reopened.status().ToString());
  } else {
    db = reopened->get();
    if (tf != nullptr) {
      const pxq::obs::MetricsSnapshot m = db->Metrics();
      const auto* h = m.HistOf("pxq_recovery_replay_ns");
      tf->Fact("recovery_replay_ns", h != nullptr ? static_cast<double>(h->sum)
                                                  : 0);
    }
    rep->Fact("recovered_commits",
              static_cast<double>(db->recovered_commits()));
    // Every acknowledged write, read back after the reopen.
    int64_t checked = 0, wrong = 0;
    for (const auto& [person, name] : names) {
      auto r = db->QueryStrings(PersonNamePath(person));
      ++checked;
      if (!r.ok() || r->size() != 1 || (*r)[0] != name) ++wrong;
    }
    for (const auto& [key, present] : bidders) {
      auto r = db->Query(BidderPath(key.first, key.second));
      ++checked;
      if (!r.ok() || r->size() != (present ? 1U : 0U)) ++wrong;
    }
    if (!current.empty()) {
      auto r = db->QueryStrings(kCurrentPath);
      ++checked;
      if (!r.ok() || static_cast<int64_t>(r->size()) != counts.open_auctions ||
          std::any_of(r->begin(), r->end(),
                      [&](const std::string& v) { return v != current; })) {
        ++wrong;
      }
    }
    attempted += checked;
    failed += wrong;
    rep->Check("acknowledged writes readable after reopen", wrong == 0,
               std::to_string(wrong) + " of " + std::to_string(checked) +
                   " read-backs differ");
  }
  rep->Count(attempted, failed);

  const double ups = static_cast<double>(timed_commits) / Seconds(window);
  const auto& raw = single.raw().values();
  const int64_t ns = single.raw().count();
  rep->Named("update_p50_ms", Percentile(raw, 50) / 1e6, "ms", ns);
  rep->Named("update_p95_ms", Percentile(raw, 95) / 1e6, "ms", ns);
  rep->Named("bulk_update_p50_ms", Percentile(bulk, 50) / 1e6, "ms",
             static_cast<int64_t>(bulk.size()));
  rep->Named("updates_per_s", ups, "1/s", timed_commits);
  rep->Named("checkpoint_ms", Percentile(ckpt, 50) / 1e6, "ms",
             static_cast<int64_t>(ckpt.size()));
  rep->Named("recover_s", Seconds(o1 - o0), "s");
  rep->EndToEnd("op_p50_cpu_us",
                Percentile(single.scaled().values(), 50) / 1e3, "us");
  rep->EndToEnd("op_tail_cpu_us",
                Percentile(single.scaled().values(), 90) / 1e3, "us");
  if (tf != nullptr) tf->AddSpans(*log);
  std::filesystem::remove_all(opts.data_dir);
  Finish(rep, ys, setup.setup_s, setup.setup_raw_s);
  return true;
}

// -------------------------------------------------------- xmark_fig9

bool XmarkFig9(const RunConfig& cfg, Report* rep, TraceFile* tf) {
  using pxq::xmark::QueryResult;
  std::unique_ptr<pxq::storage::ReadOnlyStore> ro;
  std::unique_ptr<PagedStore> up;
  PagedStore::Config up_cfg;
  up_cfg.page_tuples = 1 << 16;
  up_cfg.shred_fill = 0.8;  // the paper's ~20% unused per page
  Yardstick ys;
  std::vector<double> times, raw_times;
  for (int i = 0; i < kSetupReps; ++i) {
    ro.reset();
    up.reset();
    const Stamp t0 = Stamp::Now();
    const std::string xml = GenerateXml(kReadFactor);
    auto d_ro = pxq::storage::ShredXml(xml);
    auto d_up = pxq::storage::ShredXml(xml);
    if (!d_ro.ok() || !d_up.ok()) {
      rep->Check("setup", false, "shred failed");
      return true;
    }
    ro = pxq::storage::ReadOnlyStore::Build(std::move(d_ro).value());
    auto built = PagedStore::Build(std::move(d_up).value(), up_cfg);
    const Stamp took = Stamp::Now() - t0;
    raw_times.push_back(Seconds(took.wall));
    times.push_back(Seconds(took.cpu) * ys.Measure());
    if (!built.ok()) {
      rep->Check("setup", false, built.status().ToString());
      return true;
    }
    up = std::move(built).value();
    if (i == 0) {
      rep->Fact("xml_bytes", static_cast<double>(xml.size()));
      rep->Hash("xml", Fnv1a(xml));
    }
  }
  rep->Fact("nodes", static_cast<double>(up->used_count()));

  std::unique_ptr<SpanLog> log;
  rep->Hash("queries", HashQueryOrder(cfg.seed));
  if (cfg.trace) {
    log = std::make_unique<SpanLog>(0);
    SetUpSpans(kReadFactor, false, log.get(), tf);
    SnapshotSpan(
        cfg.out_dir + "/store.snapshot",
        [&](const std::string& path) { return up->SaveSnapshot(path); },
        log.get(), tf);
  }

  constexpr int kQ = pxq::xmark::kNumQueries;
  std::vector<std::vector<int64_t>> t_ro(kQ + 1), t_up(kQ + 1);
  int64_t attempted = 0, failed = 0;
  // One query on one store; returns its duration.
  auto run = [&](int q, bool on_up, bool timed, QueryResult* res) {
    const Stamp t0 = Stamp::Now();
    auto r = on_up ? pxq::xmark::RunQuery(*up, q)
                   : pxq::xmark::RunQuery(*ro, q);
    const Stamp t1 = Stamp::Now();
    *res = r.ok() ? *r : QueryResult{-1, 0};
    if (!timed) return t1 - t0;
    (on_up ? t_up : t_ro)[static_cast<size_t>(q)].push_back(t1.wall -
                                                             t0.wall);
    if (log) {
      log->Leaf(on_up ? "storage.fig9.up" : "storage.fig9.ro", 0,
                log->NewId(), t0.wall, t1.wall, q);
    }
    return t1 - t0;
  };
  QueryOrder order(cfg.seed);
  ScaledTimes passes(SubSeed(cfg.seed, 22));  // up-store time of a round
  auto round = [&](int64_t r, bool timed) {
    Stamp pass;
    for (int q : order.Next()) {
      QueryResult a, b;
      const bool up_first = r % 2 == 1;  // alternate which store runs first
      const Stamp first = run(q, up_first, timed, &a);
      const Stamp second = run(q, !up_first, timed, &b);
      pass += up_first ? first : second;
      attempted += 2;
      if (!(a == b) || a.cardinality < 0) failed += 2;
    }
    if (timed) passes.Add(pass);
  };
  round(0, false);  // warm-up
  ys.Measure();  // the first segment starts here
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(cfg.seconds * 1e9);
  int64_t rounds = 0;
  while (NowNs() < end) {
    round(rounds++, true);
    passes.Scale(ys.Measure());  // a round is longer than kEveryNs
  }
  rep->Count(attempted, failed);
  rep->Check("ro and up results equal", failed == 0,
             std::to_string(failed) + " of " + std::to_string(attempted) +
                 " results differ or failed");

  double up_ms = 0, ratio_sum = 0, up_busy = 0;
  int64_t n = 0;
  for (int q = 1; q <= kQ; ++q) {
    const auto& u = t_up[static_cast<size_t>(q)];
    const double mu = Percentile(u, 50);
    const double mr = Percentile(t_ro[static_cast<size_t>(q)], 50);
    up_ms += mu / 1e6;
    ratio_sum += mr > 0 ? mu / mr : 0;
    char name[32];
    std::snprintf(name, sizeof name, "fig9_ratio_q%02d", q);
    rep->Fact(name, mr > 0 ? mu / mr : 0);
    n += static_cast<int64_t>(u.size());
    for (int64_t t : u) up_busy += Seconds(t);
  }
  const double ups = static_cast<double>(n) / up_busy;
  rep->Named("up_queries_per_s", ups, "1/s", n);
  rep->Named("xmark_up_ms", up_ms, "ms", rounds);
  rep->Named("up_ro_ratio", ratio_sum / kQ, "ratio", rounds);
  // The op is a whole Q1-Q20 pass on the up store, so every query
  // counts toward the bounded figures.
  rep->Named("pass_p50_ms", Percentile(passes.raw().values(), 50) / 1e6, "ms",
             rounds);
  rep->EndToEnd("op_p50_cpu_us",
                Percentile(passes.scaled().values(), 50) / 1e3, "us");
  // p90, not p99: a run has about 150 passes, and their p99 is the
  // second slowest, which a single burst of load on the host sets.
  rep->EndToEnd("op_tail_cpu_us",
                Percentile(passes.scaled().values(), 90) / 1e3, "us");
  if (tf != nullptr) tf->AddSpans(*log);
  Finish(rep, ys, Median(times), Median(raw_times));
  return true;
}

}  // namespace

bool RunWorkload(const RunConfig& cfg, Report* rep, TraceFile* tf) {
  if (cfg.workload == "xmark_read") return XmarkRead(cfg, rep, tf);
  if (cfg.workload == "update_durable") return UpdateDurable(cfg, rep, tf);
  if (cfg.workload == "xmark_fig9") return XmarkFig9(cfg, rep, tf);
  return false;
}

}  // namespace perfbench
