// The host's speed, measured in the workload's own thread.
//
// On a shared host the speed of a core drifts by up to a factor of two
// within minutes: neighbours load the shared caches, the memory bus and
// the sibling hyperthreads. A time measured in one run is then not
// comparable with one measured in another. The Yardstick is a fixed
// piece of work that does not call pxq: sorting and hashing a fixed set
// of short strings, timed in thread CPU time. A workload stops about
// every kEveryNs to run it (Measure), and scales the CPU times of the
// operations it ran since the last stop by kReferenceNs over the median
// chunk time of this stop and the last. A change in pxq moves the
// operations' times and not the chunks', so it shows in the scaled
// times; a change in the host's speed moves both and cancels.
#ifndef PXQ_PERFBENCH_YARDSTICK_H_
#define PXQ_PERFBENCH_YARDSTICK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Yardstick {
 public:
  /// A chunk's time on the reference host: about its median on the
  /// 4-core host the benchmark was written on.
  static constexpr double kReferenceNs = 1.3e6;
  /// How often a workload stops to measure the host: Due() turns true
  /// this long after the last Measure().
  static constexpr int64_t kEveryNs = 100'000'000;
  /// Chunks per Measure().
  static constexpr int kChunks = 3;

  /// Builds the chunk's input and takes a first measurement.
  Yardstick();

  bool Due() const;
  /// Runs kChunks chunks. Returns the factor for the times measured since
  /// the previous call: kReferenceNs / the median of this call's chunks
  /// and the previous call's.
  double Measure();

  /// Median of every chunk so far, in ns (for the report).
  double MedianNs() const;
  int64_t chunks() const { return static_cast<int64_t>(times_.size()); }
  /// Wall time spent in Measure() since construction.
  int64_t spent_ns() const { return spent_ns_; }

 private:
  int64_t Chunk();

  // A chunk sorts a copy of keys_. The copy allocates about 2300 small
  // strings, as the program's calls allocate their results: a chunk
  // without the copy followed the workloads' speed less closely.
  std::vector<std::string> keys_;
  std::vector<int64_t> times_;
  int64_t last_ = 0;  // end of the last Measure()
  int64_t spent_ns_ = 0;
};

}  // namespace perfbench

#endif  // PXQ_PERFBENCH_YARDSTICK_H_
