#include "yardstick.h"

#include <algorithm>

#include "inputs.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr int kStrings = 4096;

// Keeps the chunk's result alive, so the compiler cannot drop the work.
volatile uint64_t sink;

double MedianOf(std::vector<int64_t> v) {
  const size_t m = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(m),
                   v.end());
  return static_cast<double>(v[m]);
}

}  // namespace

Yardstick::Yardstick() {
  // Keys of 4-31 letters over a small alphabet, so that comparisons share
  // prefixes and branch the way the store's name and value comparisons
  // do, and about half are longer than the small-string buffer. A fixed
  // seed: every run sorts the same keys.
  Rng rng(0x9e3779b97f4a7c15ULL);
  keys_.reserve(kStrings);
  for (int i = 0; i < kStrings; ++i) {
    std::string k(4 + rng.Below(28), ' ');
    for (char& c : k) c = static_cast<char>('a' + rng.Below(6));
    keys_.push_back(std::move(k));
  }
  Chunk();  // warm the allocator and the caches
  Measure();
}

int64_t Yardstick::Chunk() {
  const int64_t t0 = ThreadCpuNs();
  std::vector<std::string> v = keys_;
  std::sort(v.begin(), v.end());
  uint64_t h = kFnvBasis;
  for (const std::string& k : v) h = Fnv1a(k, h);
  sink = h;
  return ThreadCpuNs() - t0;
}

bool Yardstick::Due() const { return NowNs() - last_ >= kEveryNs; }

double Yardstick::Measure() {
  const int64_t t0 = NowNs();
  for (int i = 0; i < kChunks; ++i) times_.push_back(Chunk());
  last_ = NowNs();
  spent_ns_ += last_ - t0;
  const auto n = static_cast<std::ptrdiff_t>(
      std::min(times_.size(), size_t{2 * kChunks}));
  return kReferenceNs /
         MedianOf(std::vector<int64_t>(times_.end() - n, times_.end()));
}

double Yardstick::MedianNs() const {
  return times_.empty() ? 0 : MedianOf(times_);
}

}  // namespace perfbench
