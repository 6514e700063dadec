#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

namespace {
constexpr std::size_t kSubBits = 6;
constexpr std::size_t kSub = std::size_t{1} << kSubBits;  // 64
constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;
}  // namespace

double percentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

std::size_t LatencyHistogram::bucketOf(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const auto top = static_cast<std::size_t>(std::bit_width(ns)) - 1;
  const std::size_t shift = top - kSubBits;
  const std::size_t mantissa = static_cast<std::size_t>(ns >> shift) & (kSub - 1);
  return kSub + shift * kSub + mantissa;
}

double LatencyHistogram::bucketLow(std::size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const std::size_t shift = (bucket - kSub) / kSub;
  const std::size_t mantissa = (bucket - kSub) % kSub;
  return std::ldexp(static_cast<double>(kSub + mantissa), static_cast<int>(shift));
}

double LatencyHistogram::bucketWidth(std::size_t bucket) {
  if (bucket < kSub) return 1;
  return std::ldexp(1.0, static_cast<int>((bucket - kSub) / kSub));
}

void LatencyHistogram::record(std::int64_t ns) {
  ++buckets_[bucketOf(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::percentileNs(double q) const {
  if (count_ == 0) return 0;
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (seen + buckets_[i] >= rank) {
      // Interpolate by rank inside the bucket, as if its samples were
      // spread evenly over it.
      const double frac = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(buckets_[i]);
      return bucketLow(i) + bucketWidth(i) * frac;
    }
    seen += buckets_[i];
  }
  return bucketLow(kBuckets - 1);
}

double processCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
