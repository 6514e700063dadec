#include "counters.hpp"

#include <algorithm>
#include <cstdio>

#include "gridrm/sql/parser.hpp"
#include "gridrm/sql/vec/engine.hpp"

namespace perfbench {

namespace core = gridrm::core;

void Counters::addGateway(core::Gateway& gw) {
  const auto cache = gw.cache().stats();
  cacheHits += static_cast<double>(cache.hits);
  cacheMisses += static_cast<double>(cache.misses);
  coalesced += static_cast<double>(gw.requestManager().stats().coalescedQueries);
  const auto pool = gw.connectionManager().stats();
  poolAcquisitions += static_cast<double>(pool.acquisitions);
  poolHits += static_cast<double>(pool.poolHits);
  const auto sched = gw.scheduler().stats();
  for (std::size_t i = 0; i < core::kLaneCount; ++i) {
    executed[i] += static_cast<double>(sched.lanes[i].executed);
    maxQueued[i] = std::max(maxQueued[i], static_cast<double>(sched.lanes[i].maxQueued));
  }
  const auto plans = gw.planCache().stats();
  planHits += static_cast<double>(plans.hits + plans.statementHits + plans.federatedHits);
  planLookups += static_cast<double>(plans.hits + plans.misses + plans.statementHits +
                                     plans.statementMisses + plans.federatedHits +
                                     plans.federatedMisses);
  eventsDispatched += static_cast<double>(gw.eventManager().stats().dispatched);
  const auto* store = gw.timeSeriesStore();
  const auto ts = store != nullptr ? store->stats() : gridrm::store::tsdb::TsdbStats{};
  tsdbAppended += static_cast<double>(ts.appendedRows);
  tsdbSeals += static_cast<double>(ts.seals);
  tsdbRollupRows += static_cast<double>(ts.rollupRows1m + ts.rollupRows1h);
  tsdbTierHits += static_cast<double>(ts.tierHits1m + ts.tierHits1h);
  tsdbPruned += static_cast<double>(ts.scan.segmentsPruned);
  bytesPerSample = std::max(bytesPerSample, ts.bytesPerSample());
  const auto stream = gw.streamStats();
  streamRowsMatched += static_cast<double>(stream.rowsQueued);
  streamDeltasDropped += static_cast<double>(stream.deltasDropped);
}

void Counters::addGlobal(const gridrm::global::GlobalLayer& layer) {
  const auto g = layer.stats();
  lookupHits += static_cast<double>(g.lookupCacheHits);
  directoryLookups += static_cast<double>(g.directoryLookups);
  framesSent += static_cast<double>(g.fragmentFramesSent);
  rowsShipped += static_cast<double>(g.fragmentRowsShipped);
}

void Counters::addProcess() {
  parses += static_cast<double>(gridrm::sql::parseSelectCount());
  const auto vec = gridrm::sql::vec::engineStats();
  vecRows += static_cast<double>(vec.vecRowsScanned);
  vecFallbacks += static_cast<double>(vec.vecFallbacks);
}

namespace {

// Every summed counter; maxQueued and bytesPerSample are levels and
// handled apart.
constexpr double Counters::*kSummed[] = {
    &Counters::cacheHits,        &Counters::cacheMisses,       &Counters::coalesced,
    &Counters::poolAcquisitions, &Counters::poolHits,          &Counters::planHits,
    &Counters::planLookups,      &Counters::eventsDispatched,  &Counters::alertsRaised,
    &Counters::tsdbAppended,     &Counters::tsdbSeals,         &Counters::tsdbRollupRows,
    &Counters::tsdbTierHits,     &Counters::tsdbPruned,        &Counters::parses,
    &Counters::vecRows,          &Counters::vecFallbacks,      &Counters::streamRowsMatched,
    &Counters::streamDeltasDropped, &Counters::lookupHits,     &Counters::directoryLookups,
    &Counters::framesSent,       &Counters::rowsShipped,       &Counters::datagrams,
};

}  // namespace

Counters Counters::minus(const Counters& b) const {
  Counters d = *this;
  for (auto field : kSummed) d.*field -= b.*field;
  for (int i = 0; i < 3; ++i) d.executed[i] -= b.executed[i];
  return d;
}

void Counters::accumulate(const Counters& d) {
  for (auto field : kSummed) this->*field += d.*field;
  for (int i = 0; i < 3; ++i) {
    executed[i] += d.executed[i];
    maxQueued[i] = std::max(maxQueued[i], d.maxQueued[i]);
  }
  bytesPerSample = std::max(bytesPerSample, d.bytesPerSample);
}

std::uint64_t requestsServed(const gridrm::net::Network& net,
                             const std::vector<gridrm::net::Address>& addrs) {
  std::uint64_t n = 0;
  for (const auto& a : addrs) n += net.stats(a).requestsServed;
  return n;
}

std::uint64_t bytesMoved(const gridrm::net::Network& net,
                         const std::vector<gridrm::net::Address>& addrs) {
  std::uint64_t n = 0;
  for (const auto& a : addrs) {
    const auto s = net.stats(a);
    n += s.bytesIn + s.bytesOut;
  }
  return n;
}

namespace {

struct LayerSum {
  double total = 0;
  double self = 0;
};

LayerSum sumLayers(const std::vector<LayerTotals>& layers, const std::string& prefix) {
  LayerSum s;
  for (const auto& l : layers) {
    if (l.name == prefix || l.name.rfind(prefix + ".", 0) == 0) {
      s.total += l.totalUs;
      s.self += l.selfUs;
    }
  }
  return s;
}

}  // namespace

void addLayerMetrics(RunResult& out, const Counters& c,
                     const std::vector<LayerTotals>& layers, double ops,
                     double overheadPct) {
  auto perOp = [&](double v) { return ratio(v, ops); };
  out.add("core.cache.hit_ratio", ratio(c.cacheHits, c.cacheHits + c.cacheMisses), "ratio");
  out.add("core.request.coalesced_per_miss", ratio(c.coalesced, c.cacheMisses), "ratio");
  out.add("core.pool.reuse_ratio", ratio(c.poolHits, c.poolAcquisitions), "ratio");
  out.add("core.gateway.self_us", perOp(sumLayers(layers, "acil").self), "us");
  static const char* kLanes[3] = {"interactive", "hedge", "background"};
  for (int i = 0; i < 3; ++i) {
    const std::string lane = std::string("core.scheduler.") + kLanes[i];
    out.add(lane + ".executed_per_op", perOp(c.executed[i]), "tasks/op");
    out.add(lane + ".max_queued", c.maxQueued[i], "tasks");
  }
  const LayerSum drivers = sumLayers(layers, "drivers");
  out.add("drivers.exec_us", perOp(drivers.total), "us");
  out.add("drivers.self_us", perOp(drivers.self), "us");
  out.add("drivers.plan_cache_hit_ratio", ratio(c.planHits, c.planLookups), "ratio");
  out.add("sql.parses_per_op", perOp(c.parses), "parses/op");
  for (const char* agent : {"snmp", "ganglia", "scms", "sql", "mds", "netlogger"}) {
    const std::string name = std::string("agents.") + agent;
    out.add(name + ".serve_us", perOp(sumLayers(layers, name).total), "us");
  }
  out.add("store.tsdb.appended_rows", perOp(c.tsdbAppended), "rows/op");
  out.add("store.tsdb.seals", perOp(c.tsdbSeals), "seals/op");
  out.add("store.tsdb.rollup_rows", perOp(c.tsdbRollupRows), "rows/op");
  out.add("store.tsdb.tier_hits", perOp(c.tsdbTierHits), "hits/op");
  out.add("store.tsdb.segments_pruned", perOp(c.tsdbPruned), "segments/op");
  out.add("store.tsdb.bytes_per_sample", c.bytesPerSample, "bytes");
  out.add("sql.vec.rows_per_op", perOp(c.vecRows), "rows/op");
  out.add("sql.vec.fallbacks", c.vecFallbacks, "count");
  out.add("stream.rows_matched_per_op", perOp(c.streamRowsMatched), "rows/op");
  out.add("stream.deltas_dropped", c.streamDeltasDropped, "count");
  out.add("core.events.dispatched", c.eventsDispatched, "count");
  out.add("core.alerts.raised", c.alertsRaised, "count");
  out.add("global.serve_us", perOp(sumLayers(layers, "global.serve").total), "us");
  out.add("global.coordinator_self_us", perOp(sumLayers(layers, "global.coordinator").self),
          "us");
  out.add("global.directory.serve_us", perOp(sumLayers(layers, "global.directory").total),
          "us");
  out.add("global.lookup_cache_hit_ratio",
          ratio(c.lookupHits, c.lookupHits + c.directoryLookups), "ratio");
  out.add("global.directory_lookups_per_op", perOp(c.directoryLookups), "lookups/op");
  out.add("global.fragment_frames_per_op", perOp(c.framesSent), "frames/op");
  out.add("global.rows_shipped_per_op", perOp(c.rowsShipped), "rows/op");
  out.add("net.datagrams_per_op", perOp(c.datagrams), "datagrams/op");
  out.add("trace.overhead_pct", overheadPct, "%");
}

std::string layerTable(const std::vector<LayerTotals>& layers, double ops) {
  std::string out = "layer                        spans/op   total_us/op    self_us/op\n";
  char line[160];
  for (const auto& l : layers) {
    if (l.spans == 0) continue;
    std::snprintf(line, sizeof line, "%-26s %10.3f %13.3f %13.3f\n", l.name.c_str(),
                  ratio(static_cast<double>(l.spans), ops), ratio(l.totalUs, ops),
                  ratio(l.selfUs, ops));
    out += line;
  }
  return out;
}

}  // namespace perfbench
