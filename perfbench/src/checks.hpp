// Correctness checks the workloads apply to the program's outputs. Each
// compares a result against a computation made here, apart from the
// program (a reference aggregation, a top-k, a row tally), or against a
// property the query must have (every row satisfies its WHERE clause).
// A check returns an empty string when it passes and a one-line reason
// when it fails.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gridrm/dbc/result_set.hpp"
#include "gridrm/util/value.hpp"

namespace perfbench {

using Row = std::vector<gridrm::util::Value>;

/// A result as plain columns and rows, so checks (and their tests) need
/// no live gateway.
struct Table {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  /// Index of a column by name; -1 when absent.
  int col(const std::string& name) const;
};

Table toTable(const gridrm::dbc::VectorResultSet& rs);

/// Exactly one row, whose HostName is `host`.
std::string checkSingleHost(const Table& t, const std::string& host);

/// Every host of `hosts` appears exactly once, and no other host does.
std::string checkHostsOnce(const Table& t, const std::vector<std::string>& hosts);

/// Every row satisfies the statement's `WHERE column > threshold`.
std::string checkWhere(const Table& t, const std::string& column, double threshold);

/// `expectedRows` rows, each tagged with a Source among `urls`.
std::string checkSources(const Table& t, const std::vector<std::string>& urls,
                         std::size_t expectedRows);

/// One row per URL of `urls`, each URL tagging exactly one row.
std::string checkOneRowPerUrl(const Table& t, const std::vector<std::string>& urls);

struct Agg {
  std::uint64_t count = 0;
  double sum = 0;
  double max = 0;
  double avg() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
};

/// The reference aggregation: COUNT, SUM, MAX of `valueCol` grouped by
/// `keyCol`, over rows the program returned without aggregating.
std::map<std::string, Agg> aggregate(const Table& t, const std::string& keyCol,
                                     const std::string& valueCol);

/// The program's grouped result (`keyCol` plus count/avg/max columns at
/// the given positions) equals `expected` group for group. Counts must
/// match exactly; averages and maxima to a relative 1e-9, the precision
/// of reals on the inter-gateway wire.
std::string checkAggregate(const Table& actual, const std::string& keyCol,
                           int countIdx, int avgIdx, int maxIdx,
                           const std::map<std::string, Agg>& expected);

/// `actual` is the first `k` rows of `pool` ordered by `valueCol`
/// descending: its values equal the top-k values in order, and every
/// returned row carries its key's value in the pool (keys are unique in
/// the pool). Values match to a relative 1e-9.
std::string checkTopK(const Table& actual, const Table& pool,
                      const std::string& keyCol, const std::string& valueCol,
                      std::size_t k);

/// One polled source and the hosts its poll returns a row for.
struct PolledSource {
  std::string url;
  std::vector<std::string> hosts;
};

/// Row conservation for a harvest of `rounds` poll rounds in which every
/// source was polled once per round and `failedPolls` polls failed in
/// all: every (source, host) pair holds the same count c_s <= rounds,
/// no other pair holds rows, and the rounds the sources lost add up to
/// the failed polls: sum over s of (rounds - c_s) == failedPolls.
std::string checkConservation(
    const std::vector<PolledSource>& sources, std::uint64_t rounds,
    std::uint64_t failedPolls,
    const std::map<std::pair<std::string, std::string>, std::uint64_t>& counts);

}  // namespace perfbench
