// Measurement helpers shared by the workloads: a log-bucketed latency
// histogram, exact percentiles, process CPU and RSS from getrusage, and
// the metric list each workload hands back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in (0, 1]) of an ascending vector; 0 when
/// empty.
double percentileSorted(const std::vector<double>& sorted, double q);

/// Latency histogram with 64 sub-buckets per power of two (about 1.1%
/// bucket width), so a run of millions of operations keeps a fixed
/// footprint. Values are nanoseconds.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const noexcept { return count_; }
  /// Nearest-rank percentile, interpolated by rank within its bucket.
  double percentileNs(double q) const;

  static std::size_t bucketOf(std::uint64_t ns);
  static double bucketLow(std::size_t bucket);
  static double bucketWidth(std::size_t bucket);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// User plus system CPU time of the whole process, in microseconds.
double processCpuUs();
/// Peak resident set size of the process, in MB.
double peakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First failed correctness check, reported on stderr.
  std::string error;

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

double median(std::vector<double> values);

/// Safe ratio: 0 when the denominator is 0.
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace perfbench
