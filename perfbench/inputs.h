// Seeded inputs of the end-to-end benchmark: the XMark document, the
// query-text mixes and the XUpdate edit streams. Everything here is a
// pure function of the seed, so the same seed gives byte-identical
// XML, query and XUpdate streams (StreamHashes prints their hashes).
// The program under test only ever receives the generated text.
#ifndef PXQ_PERFBENCH_INPUTS_H_
#define PXQ_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "xmark/generator.h"

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so its query and edit
/// streams do not change when the program's generator does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Zipf(s) over ranks [0, n): rank r drawn with weight (r+1)^-s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

inline constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
uint64_t Fnv1a(std::string_view s, uint64_t h = kFnvBasis);

/// Mixes a sub-seed from the run seed and a stream label.
uint64_t SubSeed(uint64_t seed, uint64_t label);
/// Seed of xmark_read's QueryStream.
uint64_t ReaderSeed(uint64_t seed);

/// The XMark document at `factor`. Like xmlgen's, it is one fixed
/// document per factor: the seed varies the streams sent to it, not its
/// content, so runs with different seeds see the same data.
std::string GenerateXml(double factor);

/// A query text and the public call it goes through.
struct QueryText {
  std::string text;
  bool strings = false;  // Database::QueryStrings instead of Query
};

/// The texts a workload's reader sends, and how they pick among them:
/// the first `zipf_ranks` texts are point lookups drawn Zipf-skewed by
/// rank with probability `zipf_share`; otherwise a text is drawn
/// uniformly from the rest (or from all texts when zipf_ranks is 0).
struct QueryMix {
  std::vector<QueryText> texts;
  size_t zipf_ranks = 0;
  double zipf_share = 0;
};

/// xmark_read: ~4x the plan cache's 512 entries of distinct point-lookup
/// texts, plus the absolute-path forms of the XMark Q1-Q20 access paths.
/// Like the document, the mix is fixed: the run seed drives the reader's
/// stream of picks from it (QueryStream), not which ids it holds.
QueryMix XmarkReadMix(const pxq::xmark::EntityCounts& counts);

/// The persons and open auctions update_durable edits.
struct HotSet {
  std::vector<int64_t> persons;
  std::vector<int64_t> auctions;
};
HotSet PickHotSet(uint64_t seed, const pxq::xmark::EntityCounts& counts,
                  int per_kind);
/// The reader's stream of picks from a mix.
class QueryStream {
 public:
  QueryStream(const QueryMix& mix, uint64_t seed);
  size_t Next();

 private:
  const QueryMix& mix_;
  Zipf zipf_;
  Rng rng_;
};

/// xmark_fig9: the order in which each round runs Q1-Q20.
class QueryOrder {
 public:
  explicit QueryOrder(uint64_t seed) : rng_(SubSeed(seed, 3)) {}
  std::vector<int> Next();

 private:
  Rng rng_;
};

/// One XUpdate document and what it does, so the benchmark can model the
/// acknowledged state.
struct Edit {
  enum class Kind { kName, kAppend, kRemove, kBulk };
  Kind kind = Kind::kName;
  std::string doc;
  int64_t target = 0;  // person (kName) or open auction (kAppend/kRemove)
  std::string value;   // new name, bidder id, or bulk `current` value
};

/// The writer's edit stream: text updates of person/name, appends of a
/// small bidder and removes of a bidder this stream appended earlier,
/// so the document size stays steady; every `bulk_every`-th edit (0 =
/// never) rewrites the `current` price of every open auction.
class EditStream {
 public:
  EditStream(uint64_t seed, std::vector<int64_t> persons,
             std::vector<int64_t> auctions, int bulk_every);
  Edit Next();

 private:
  Rng rng_;
  std::vector<int64_t> persons_;
  std::vector<int64_t> auctions_;
  int bulk_every_;
  int64_t n_ = 0;
  std::deque<std::pair<int64_t, std::string>> appended_;
};

/// Select paths the benchmark uses to read back what an edit wrote.
std::string PersonNamePath(int64_t person);
std::string BidderPath(int64_t auction, const std::string& bidder_id);
inline constexpr const char* kCurrentPath =
    "/site/open_auctions/open_auction/current";

/// Hash of the first 10000 texts xmark_read's reader sends.
uint64_t HashQueryStream(const QueryMix& mix, uint64_t seed);
/// Hash of the first 100 rounds' query orders of xmark_fig9.
uint64_t HashQueryOrder(uint64_t seed);
/// Hash of the first 1000 edits update_durable's writer sends.
uint64_t HashEditStream(uint64_t seed, const HotSet& hot);

/// Hashes of the streams a run of `workload` sends with this seed: the
/// XML, the reader stream and the writer stream. Returns false for an
/// unknown workload.
struct StreamHashes {
  uint64_t xml = 0;
  uint64_t queries = 0;
  uint64_t xupdates = 0;
  int64_t xml_bytes = 0;
};
bool HashStreams(std::string_view workload, uint64_t seed,
                 StreamHashes* out);

/// Fixed shape of each workload.
inline constexpr double kReadFactor = 0.1;    // xmark_read, xmark_fig9
inline constexpr double kWriteFactor = 0.04;  // update_durable
inline constexpr int kHotPerKind = 16;        // hot persons, hot auctions
inline constexpr int kBulkEvery = 20;         // update_durable
inline constexpr int kCheckpointEvery = 50;   // update_durable commits
inline constexpr double kZipfExponent = 0.8;  // xmark_read lookup skew

}  // namespace perfbench

#endif  // PXQ_PERFBENCH_INPUTS_H_
