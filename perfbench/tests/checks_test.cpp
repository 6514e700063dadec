// Tests of the benchmark's correctness checks. Each check is fed a
// result it must accept and a deliberately wrong one it must reject.
//
//   perfbench_checks_test   (exit code 0 when every case holds)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "../src/checks.hpp"
#include "../src/measure.hpp"

namespace {

using namespace perfbench;
using gridrm::util::Value;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}
void accepts(const std::string& err, const std::string& what) {
  expect(err.empty(), what + " should pass, got: " + err);
}
void rejects(const std::string& err, const std::string& what) {
  expect(!err.empty(), what + " should be rejected");
}

void testPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentileSorted(v, 0.50) == 50, "p50 of 1..100 is 50");
  expect(percentileSorted(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(percentileSorted(v, 1.0) == 100, "p100 is the maximum");
  expect(percentileSorted({}, 0.5) == 0, "empty percentile is 0");
  // A wrong answer (the mean of a skewed set) is not the median.
  const std::vector<double> skew{1, 1, 1, 1, 1000};
  expect(percentileSorted(skew, 0.5) == 1, "median ignores the outlier");

  // The histogram agrees with the exact percentile within its bucket width.
  LatencyHistogram h;
  std::vector<double> exact;
  for (int i = 0; i < 10000; ++i) {
    const auto ns = static_cast<std::int64_t>(100 + (i * 7919) % 50000);
    h.record(ns);
    exact.push_back(static_cast<double>(ns));
  }
  std::sort(exact.begin(), exact.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double want = percentileSorted(exact, q);
    const double got = h.percentileNs(q);
    expect(std::fabs(got - want) <= 0.016 * want,
           "histogram p" + std::to_string(q) + " " + std::to_string(got) + " vs " +
               std::to_string(want));
  }
  // Every value falls inside its own bucket.
  for (std::uint64_t ns : {0ull, 63ull, 64ull, 1000ull, 123456789ull}) {
    const std::size_t b = LatencyHistogram::bucketOf(ns);
    const double lo = LatencyHistogram::bucketLow(b);
    expect(lo <= static_cast<double>(ns) &&
               static_cast<double>(ns) < lo + LatencyHistogram::bucketWidth(b),
           "bucket of " + std::to_string(ns));
  }
  // A histogram that put every sample one bucket too high is rejected.
  LatencyHistogram off;
  for (double x : exact) off.record(static_cast<std::int64_t>(x * 1.05));
  expect(std::fabs(off.percentileNs(0.5) - percentileSorted(exact, 0.5)) >
             0.016 * percentileSorted(exact, 0.5),
         "a shifted histogram is told apart from the exact percentile");
}

Table hosts(std::vector<std::string> names) {
  Table t{{"HostName", "Load1"}, {}};
  double x = 0.1;
  for (auto& n : names) t.rows.push_back({Value(n), Value(x += 0.3)});
  return t;
}

void testRowChecks() {
  accepts(checkSingleHost(hosts({"a"}), "a"), "single host");
  rejects(checkSingleHost(hosts({"b"}), "a"), "probe answered by another host");
  rejects(checkSingleHost(hosts({"a", "a"}), "a"), "probe with two rows");

  accepts(checkHostsOnce(hosts({"a", "b", "c"}), {"a", "b", "c"}), "each host once");
  rejects(checkHostsOnce(hosts({"a", "b", "b"}), {"a", "b", "c"}), "duplicate host");
  rejects(checkHostsOnce(hosts({"a", "b", "c", "d"}), {"a", "b", "c"}), "extra host");

  const Table t = hosts({"a", "b", "c"});  // Load1 0.4, 0.7, 1.0
  accepts(checkWhere(t, "Load1", 0.3), "WHERE Load1 > 0.3");
  rejects(checkWhere(t, "Load1", 0.5), "row violating WHERE Load1 > 0.5");

  Table src{{"Source", "HostName"}, {}};
  src.rows = {{Value("u1"), Value("a")}, {Value("u2"), Value("b")}};
  accepts(checkSources(src, {"u1", "u2"}, 2), "sources");
  rejects(checkSources(src, {"u1"}, 2), "foreign source");
  rejects(checkSources(src, {"u1", "u2"}, 3), "missing rows");
  accepts(checkOneRowPerUrl(src, {"u1", "u2"}), "one row per url");
  rejects(checkOneRowPerUrl(src, {"u1", "u3"}), "row for the wrong url");
}

void testAggregation() {
  Table rows{{"ClusterName", "Load1"}, {}};
  rows.rows = {{Value("s0"), Value(1.0)}, {Value("s0"), Value(3.0)}, {Value("s1"), Value(2.0)}};
  const auto ref = aggregate(rows, "ClusterName", "Load1");
  expect(ref.at("s0").count == 2 && ref.at("s0").avg() == 2.0 && ref.at("s0").max == 3.0,
         "reference aggregation of s0");

  Table good{{"ClusterName", "COUNT(*)", "AVG(Load1)", "MAX(Load1)"}, {}};
  good.rows = {{Value("s0"), Value(2), Value(2.0), Value(3.0)},
               {Value("s1"), Value(1), Value(2.0), Value(2.0)}};
  accepts(checkAggregate(good, "ClusterName", 1, 2, 3, ref), "matching aggregate");

  Table wrongCount = good;
  wrongCount.rows[0][1] = Value(3);
  rejects(checkAggregate(wrongCount, "ClusterName", 1, 2, 3, ref), "wrong COUNT");
  Table wrongAvg = good;
  wrongAvg.rows[1][2] = Value(2.5);
  rejects(checkAggregate(wrongAvg, "ClusterName", 1, 2, 3, ref), "wrong AVG");
  Table wrongMax = good;
  wrongMax.rows[0][3] = Value(1.0);
  rejects(checkAggregate(wrongMax, "ClusterName", 1, 2, 3, ref), "wrong MAX");
  Table missing = good;
  missing.rows.pop_back();
  rejects(checkAggregate(missing, "ClusterName", 1, 2, 3, ref), "missing group");

  Table pool{{"HostName", "Load1"}, {}};
  pool.rows = {{Value("a"), Value(0.5)}, {Value("b"), Value(0.9)}, {Value("c"), Value(0.7)}};
  Table top{{"HostName", "Load1"}, {{Value("b"), Value(0.9)}, {Value("c"), Value(0.7)}}};
  accepts(checkTopK(top, pool, "HostName", "Load1", 2), "top-2");
  Table unordered{{"HostName", "Load1"}, {{Value("c"), Value(0.7)}, {Value("b"), Value(0.9)}}};
  rejects(checkTopK(unordered, pool, "HostName", "Load1", 2), "top-k out of order");
  Table wrongHost{{"HostName", "Load1"}, {{Value("a"), Value(0.9)}, {Value("c"), Value(0.7)}}};
  rejects(checkTopK(wrongHost, pool, "HostName", "Load1", 2), "top-k row not fetched");
}

void testConservation() {
  const std::vector<PolledSource> sources{{"snmp-a", {"a"}}, {"snmp-b", {"b"}},
                                          {"ganglia", {"a", "b"}}};
  using Counts = std::map<std::pair<std::string, std::string>, std::uint64_t>;
  // 10 rounds; the ganglia poll failed every round, the SNMP polls never.
  Counts ok{{{"snmp-a", "a"}, 10}, {{"snmp-b", "b"}, 10}};
  accepts(checkConservation(sources, 10, 10, ok), "ganglia failing every round");
  // Once the fault is mended: every source holds every round.
  Counts mended = ok;
  mended[{"ganglia", "a"}] = 10;
  mended[{"ganglia", "b"}] = 10;
  accepts(checkConservation(sources, 10, 0, mended), "no failures");

  rejects(checkConservation(sources, 10, 9, ok), "failed polls do not match lost rows");
  Counts lostRow = mended;
  lostRow[{"ganglia", "b"}] = 9;
  rejects(checkConservation(sources, 10, 0, lostRow), "a host lost one row");
  Counts extra = ok;
  extra[{"snmp-a", "b"}] = 10;
  rejects(checkConservation(sources, 10, 10, extra), "rows under the wrong host");
  Counts tooMany = mended;
  tooMany[{"snmp-a", "a"}] = 11;
  rejects(checkConservation(sources, 10, 0, tooMany), "more rows than rounds");
}

}  // namespace

int main() {
  testPercentiles();
  testRowChecks();
  testAggregation();
  testConservation();
  if (failures == 0) std::printf("perfbench checks: all cases hold\n");
  return failures == 0 ? 0 : 1;
}
