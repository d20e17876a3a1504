#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "xmark/queries.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += std::pow(static_cast<double>(r + 1), -s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t SubSeed(uint64_t seed, uint64_t label) {
  Rng r(seed * 0x100000001b3ULL + label);
  return r.Next();
}

uint64_t ReaderSeed(uint64_t seed) { return SubSeed(seed, 10); }

std::string GenerateXml(double factor) {
  pxq::xmark::GeneratorOptions opts;
  opts.factor = factor;
  opts.seed = 42;
  return pxq::xmark::Generate(opts);
}

std::vector<int> QueryOrder::Next() {
  std::vector<int> order(pxq::xmark::kNumQueries);
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i) + 1;
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng_.Below(i + 1)]);
  }
  return order;
}

namespace {

std::string Fmt(const char* fmt, int64_t a) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, static_cast<long long>(a));
  return buf;
}

// The plan cache holds 512 texts; the lookup pool is about 4x that.
constexpr size_t kLookupPool = 2048;
// Seed of the lookup pool's ids. A pool drawn per run seed made the
// ids at the top Zipf ranks, and with them the query p50, differ from
// seed to seed by more than the host's noise between two runs.
constexpr uint64_t kPoolSeed = 42;

}  // namespace

QueryMix XmarkReadMix(const pxq::xmark::EntityCounts& c) {
  struct Template {
    const char* fmt;
    int64_t range;
    bool strings;
  };
  const Template lookups[] = {
      {"/site/people/person[@id='person%lld']/name", c.persons, false},
      {"/site/people/person[@id='person%lld']/emailaddress", c.persons, true},
      {"/site/open_auctions/open_auction[@id='open_auction%lld']/bidder/"
       "increase",
       c.open_auctions, true},
      {"/site/open_auctions/open_auction[@id='open_auction%lld']/current",
       c.open_auctions, true},
      {"/site/regions//item[@id='item%lld']/name", c.items, false},
  };
  QueryMix mix;
  Rng rng(SubSeed(kPoolSeed, 1));
  std::set<std::string> seen;
  // Templates take turns by rank.
  while (mix.texts.size() < kLookupPool) {
    const Template& t = lookups[mix.texts.size() % std::size(lookups)];
    std::string text = Fmt(t.fmt, static_cast<int64_t>(rng.Below(
                                      static_cast<uint64_t>(t.range))));
    if (seen.insert(text).second) mix.texts.push_back({text, t.strings});
  }
  mix.zipf_ranks = mix.texts.size();
  mix.zipf_share = 0.95;
  // Absolute-path forms of the XMark access paths: child and descendant
  // scans, positional, value and range predicates, a deep chain. Qn = the
  // XMark query. Each costs the reference evaluator at most ~3 s at set-up
  // (it scans the document once per context node).
  const QueryText scans[] = {
      {"/site/open_auctions/open_auction/bidder[1]/increase", true},  // Q2
      {"/site/closed_auctions/closed_auction[price >= 40]/price",
       true},                                                         // Q5
      {"/site/regions//item", false},                                 // Q6
      {"/site//description", false},                                  // Q7
      {"/site//emailaddress", false},                                 // Q7
      {"/site/closed_auctions/closed_auction/buyer/@person", true},   // Q8
      {"/site/regions/europe/item/name", true},                       // Q9
      {"/site/regions/australia/item/description", false},            // Q13
      {"/site/regions/asia/item[payment = 'Cash']/name", true},       // Q14
      {"/site/regions/australia/item/description/parlist/listitem/"
       "parlist/listitem/text/emph/keyword",
       false},                                                        // Q15
      {"/site/open_auctions/open_auction/reserve", true},             // Q18
      {"/site/people/person/profile[@income >= 50000]/@income",
       true},                                                         // Q20
  };
  for (const QueryText& q : scans) mix.texts.push_back(q);
  return mix;
}

HotSet PickHotSet(uint64_t seed, const pxq::xmark::EntityCounts& c,
                  int per_kind) {
  HotSet hot;
  Rng rng(SubSeed(seed, 2));
  auto pick = [&](int64_t range, std::vector<int64_t>* out) {
    std::set<int64_t> seen;
    while (static_cast<int>(out->size()) < per_kind) {
      const auto v = static_cast<int64_t>(rng.Below(
          static_cast<uint64_t>(range)));
      if (seen.insert(v).second) out->push_back(v);
    }
  };
  pick(c.persons, &hot.persons);
  pick(c.open_auctions, &hot.auctions);
  return hot;
}

std::string PersonNamePath(int64_t person) {
  return Fmt("/site/people/person[@id='person%lld']/name", person);
}

std::string BidderPath(int64_t auction, const std::string& bidder_id) {
  return Fmt("/site/open_auctions/open_auction[@id='open_auction%lld']/",
             auction) +
         "bidder[@id='" + bidder_id + "']";
}

QueryStream::QueryStream(const QueryMix& mix, uint64_t seed)
    : mix_(mix),
      zipf_(std::max<size_t>(mix.zipf_ranks, 1), kZipfExponent),
      rng_(seed) {}

size_t QueryStream::Next() {
  const size_t rest = mix_.texts.size() - mix_.zipf_ranks;
  if (mix_.zipf_ranks > 0 && (rest == 0 || rng_.Unit() < mix_.zipf_share)) {
    return zipf_.Draw(&rng_);
  }
  return mix_.zipf_ranks + rng_.Below(rest);
}

EditStream::EditStream(uint64_t seed, std::vector<int64_t> persons,
                       std::vector<int64_t> auctions, int bulk_every)
    : rng_(SubSeed(seed, 100)),
      persons_(std::move(persons)),
      auctions_(std::move(auctions)),
      bulk_every_(bulk_every) {}

namespace {

constexpr const char* kXuHead =
    "<xupdate:modifications version=\"1.0\" "
    "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">";
constexpr const char* kXuTail = "</xupdate:modifications>";
// Bidders appended and not yet removed: bounds the growth.
constexpr size_t kMaxAppended = 8;

}  // namespace

Edit EditStream::Next() {
  const int64_t n = n_++;
  Edit e;
  char buf[160];
  if (bulk_every_ > 0 && n % bulk_every_ == bulk_every_ - 1) {
    e.kind = Edit::Kind::kBulk;
    std::snprintf(buf, sizeof buf, "%llu.%02llu",
                  static_cast<unsigned long long>(10 + rng_.Below(250)),
                  static_cast<unsigned long long>(rng_.Below(100)));
    e.value = buf;
    e.doc = std::string(kXuHead) + "<xupdate:update select=\"" +
            kCurrentPath + "/text()\">" + e.value + "</xupdate:update>" +
            kXuTail;
    return e;
  }
  const bool name = rng_.Unit() < 0.5;
  if (name) {
    e.kind = Edit::Kind::kName;
    e.target = persons_[rng_.Below(persons_.size())];
    std::snprintf(buf, sizeof buf, "Writer Edit%lld",
                  static_cast<long long>(n));
    e.value = buf;
    e.doc = std::string(kXuHead) + "<xupdate:update select=\"" +
            PersonNamePath(e.target) + "/text()\">" + e.value +
            "</xupdate:update>" + kXuTail;
    return e;
  }
  const bool remove = appended_.size() >= kMaxAppended ||
                      (!appended_.empty() && rng_.Unit() < 0.5);
  if (remove) {
    e.kind = Edit::Kind::kRemove;
    e.target = appended_.front().first;
    e.value = appended_.front().second;
    appended_.pop_front();
    e.doc = std::string(kXuHead) + "<xupdate:remove select=\"" +
            BidderPath(e.target, e.value) + "\"/>" + kXuTail;
    return e;
  }
  e.kind = Edit::Kind::kAppend;
  e.target = auctions_[rng_.Below(auctions_.size())];
  std::snprintf(buf, sizeof buf, "wb%lld", static_cast<long long>(n));
  e.value = buf;
  appended_.emplace_back(e.target, e.value);
  std::snprintf(buf, sizeof buf,
                "<date>%02d/%02d/2001</date><time>%02d:%02d:00</time>",
                static_cast<int>(1 + rng_.Below(12)),
                static_cast<int>(1 + rng_.Below(28)),
                static_cast<int>(rng_.Below(24)),
                static_cast<int>(rng_.Below(60)));
  e.doc = std::string(kXuHead) +
          Fmt("<xupdate:append select=\"/site/open_auctions/"
              "open_auction[@id='open_auction%lld']\">",
              e.target) +
          "<bidder id=\"" + e.value + "\">" + buf +
          Fmt("<personref person=\"person%lld\"/>",
              persons_[rng_.Below(persons_.size())]) +
          Fmt("<increase>%lld.50</increase>",
              static_cast<int64_t>(1 + rng_.Below(20))) +
          "</bidder></xupdate:append>" + kXuTail;
  return e;
}

uint64_t HashQueryStream(const QueryMix& mix, uint64_t seed) {
  uint64_t h = kFnvBasis;
  QueryStream s(mix, ReaderSeed(seed));
  for (int i = 0; i < 10000; ++i) {
    h = Fnv1a(mix.texts[s.Next()].text, h);
    h = Fnv1a("\n", h);
  }
  return h;
}

uint64_t HashEditStream(uint64_t seed, const HotSet& hot) {
  uint64_t h = kFnvBasis;
  EditStream s(seed, hot.persons, hot.auctions, kBulkEvery);
  for (int i = 0; i < 1000; ++i) h = Fnv1a(s.Next().doc, h);
  return h;
}

uint64_t HashQueryOrder(uint64_t seed) {
  QueryOrder order(seed);
  uint64_t h = kFnvBasis;
  for (int r = 0; r < 100; ++r) {
    for (int q : order.Next()) h = Fnv1a(std::to_string(q) + "\n", h);
  }
  return h;
}

bool HashStreams(std::string_view workload, uint64_t seed,
                 StreamHashes* out) {
  const bool read = workload == "xmark_read";
  const bool fig9 = workload == "xmark_fig9";
  const bool durable = workload == "update_durable";
  if (!read && !fig9 && !durable) return false;
  const double factor = (read || fig9) ? kReadFactor : kWriteFactor;
  const std::string xml = GenerateXml(factor);
  out->xml = Fnv1a(xml);
  out->xml_bytes = static_cast<int64_t>(xml.size());
  const auto counts = pxq::xmark::CountsForFactor(factor);
  if (read) out->queries = HashQueryStream(XmarkReadMix(counts), seed);
  if (fig9) out->queries = HashQueryOrder(seed);
  if (durable) {
    out->xupdates = HashEditStream(seed, PickHotSet(seed, counts, kHotPerKind));
  }
  return true;
}

}  // namespace perfbench
