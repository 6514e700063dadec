#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

namespace {

std::string str(const gridrm::util::Value& v) { return v.toString(); }

// Rows shipped between gateways carry reals as text with 10 significant
// digits, so a remote value matches the owner's to a relative 1e-9.
bool sameReal(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

int Table::col(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Table toTable(const gridrm::dbc::VectorResultSet& rs) {
  Table t;
  for (const auto& c : rs.metaData().columns()) t.columns.push_back(c.name);
  t.rows = rs.rows();
  return t;
}

std::string checkSingleHost(const Table& t, const std::string& host) {
  const int h = t.col("HostName");
  if (h < 0) return "no HostName column";
  if (t.rows.size() != 1) {
    return "probe of " + host + " returned " + std::to_string(t.rows.size()) + " rows";
  }
  if (str(t.rows[0][h]) != host) {
    return "probe of " + host + " returned host " + str(t.rows[0][h]);
  }
  return "";
}

std::string checkHostsOnce(const Table& t, const std::vector<std::string>& hosts) {
  const int h = t.col("HostName");
  if (h < 0) return "no HostName column";
  std::map<std::string, int> seen;
  for (const auto& row : t.rows) ++seen[str(row[h])];
  for (const auto& host : hosts) {
    auto it = seen.find(host);
    if (it == seen.end()) return "host " + host + " missing";
    if (it->second != 1) {
      return "host " + host + " returned " + std::to_string(it->second) + " times";
    }
  }
  if (seen.size() != hosts.size()) {
    return "result holds " + std::to_string(seen.size()) + " hosts, expected " +
           std::to_string(hosts.size());
  }
  return "";
}

std::string checkWhere(const Table& t, const std::string& column, double threshold) {
  const int c = t.col(column);
  if (c < 0) return "no " + column + " column";
  for (const auto& row : t.rows) {
    if (row[c].isNull()) return column + " is NULL in a filtered row";
    if (!(row[c].toReal() > threshold)) {
      return "row with " + column + " = " + str(row[c]) +
             " violates the WHERE clause";
    }
  }
  return "";
}

std::string checkSources(const Table& t, const std::vector<std::string>& urls,
                         std::size_t expectedRows) {
  const int s = t.col("Source");
  if (s < 0) return "no Source column";
  if (t.rows.size() != expectedRows) {
    return "site query returned " + std::to_string(t.rows.size()) +
           " rows, sources serve " + std::to_string(expectedRows);
  }
  const std::set<std::string> allowed(urls.begin(), urls.end());
  for (const auto& row : t.rows) {
    if (!allowed.count(str(row[s]))) return "row tagged with foreign source " + str(row[s]);
  }
  return "";
}

std::string checkOneRowPerUrl(const Table& t, const std::vector<std::string>& urls) {
  const int s = t.col("Source");
  if (s < 0) return "no Source column";
  if (t.rows.size() != urls.size()) {
    return "global query returned " + std::to_string(t.rows.size()) + " rows for " +
           std::to_string(urls.size()) + " urls";
  }
  std::map<std::string, int> seen;
  for (const auto& row : t.rows) ++seen[str(row[s])];
  for (const auto& url : urls) {
    if (seen[url] != 1) return "url " + url + " tags " + std::to_string(seen[url]) + " rows";
  }
  return "";
}

std::map<std::string, Agg> aggregate(const Table& t, const std::string& keyCol,
                                     const std::string& valueCol) {
  std::map<std::string, Agg> out;
  const int k = t.col(keyCol);
  const int v = t.col(valueCol);
  if (k < 0 || v < 0) return out;
  for (const auto& row : t.rows) {
    Agg& a = out[str(row[k])];
    const double x = row[v].toReal();
    a.max = a.count == 0 ? x : std::max(a.max, x);
    a.sum += x;
    ++a.count;
  }
  return out;
}

std::string checkAggregate(const Table& actual, const std::string& keyCol,
                           int countIdx, int avgIdx, int maxIdx,
                           const std::map<std::string, Agg>& expected) {
  const int k = actual.col(keyCol);
  if (k < 0) return "no " + keyCol + " column";
  const int width = static_cast<int>(actual.columns.size());
  if (countIdx >= width || avgIdx >= width || maxIdx >= width) {
    return "aggregate result has only " + std::to_string(width) + " columns";
  }
  if (actual.rows.size() != expected.size()) {
    return "aggregate returned " + std::to_string(actual.rows.size()) +
           " groups, reference has " + std::to_string(expected.size());
  }
  for (const auto& row : actual.rows) {
    const std::string key = str(row[k]);
    auto it = expected.find(key);
    if (it == expected.end()) return "group " + key + " absent from the reference";
    const Agg& e = it->second;
    if (countIdx >= 0 && row[countIdx].toInt() != static_cast<std::int64_t>(e.count)) {
      return "group " + key + " COUNT " + str(row[countIdx]) + " != " +
             std::to_string(e.count);
    }
    if (avgIdx >= 0 && !sameReal(row[avgIdx].toReal(), e.avg())) {
      return "group " + key + " AVG " + str(row[avgIdx]) + " != " + std::to_string(e.avg());
    }
    if (maxIdx >= 0 && !sameReal(row[maxIdx].toReal(), e.max)) {
      return "group " + key + " MAX " + str(row[maxIdx]) + " != " + std::to_string(e.max);
    }
  }
  return "";
}

std::string checkTopK(const Table& actual, const Table& pool,
                      const std::string& keyCol, const std::string& valueCol,
                      std::size_t k) {
  const int ak = actual.col(keyCol);
  const int av = actual.col(valueCol);
  const int pk = pool.col(keyCol);
  const int pv = pool.col(valueCol);
  if (ak < 0 || av < 0 || pk < 0 || pv < 0) return "top-k columns missing";
  std::vector<double> values;
  std::map<std::string, double> byKey;
  for (const auto& row : pool.rows) {
    values.push_back(row[pv].toReal());
    byKey[str(row[pk])] = row[pv].toReal();
  }
  std::sort(values.begin(), values.end(), std::greater<>());
  if (values.size() > k) values.resize(k);
  if (actual.rows.size() != values.size()) {
    return "LIMIT returned " + std::to_string(actual.rows.size()) + " rows, reference " +
           std::to_string(values.size());
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto& row = actual.rows[i];
    const double v = row[av].toReal();
    if (!sameReal(v, values[i])) {
      return "LIMIT row " + std::to_string(i) + " has " + valueCol + " " + str(row[av]) +
             ", reference " + gridrm::util::Value(values[i]).toString();
    }
    auto it = byKey.find(str(row[ak]));
    if (it == byKey.end() || !sameReal(it->second, v)) {
      return "LIMIT row " + str(row[ak]) + " is not among the fetched rows";
    }
  }
  return "";
}

std::string checkConservation(
    const std::vector<PolledSource>& sources, std::uint64_t rounds,
    std::uint64_t failedPolls,
    const std::map<std::pair<std::string, std::string>, std::uint64_t>& counts) {
  std::uint64_t lost = 0;
  std::size_t pairs = 0;
  for (const auto& source : sources) {
    std::uint64_t c = 0;
    bool first = true;
    for (const auto& host : source.hosts) {
      auto it = counts.find({source.url, host});
      const std::uint64_t n = it == counts.end() ? 0 : it->second;
      if (it != counts.end()) ++pairs;
      if (first) {
        c = n;
        first = false;
      } else if (n != c) {
        return source.url + " holds " + std::to_string(n) + " rows for " + host +
               " but " + std::to_string(c) + " for another host";
      }
    }
    if (c > rounds) {
      return source.url + " holds " + std::to_string(c) + " rows per host after " +
             std::to_string(rounds) + " rounds";
    }
    lost += rounds - c;
  }
  if (pairs != counts.size()) {
    return std::to_string(counts.size() - pairs) +
           " (source, host) pairs hold rows no poll should have recorded";
  }
  if (lost != failedPolls) {
    return "sources lost " + std::to_string(lost) + " rounds of rows but " +
           std::to_string(failedPolls) + " polls failed";
  }
  return "";
}

}  // namespace perfbench
