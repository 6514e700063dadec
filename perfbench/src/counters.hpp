// Component counters read through the public stats getters, differenced
// over a timed window, and the per-layer metrics derived from them and
// from the tracer's span totals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gridrm/core/gateway.hpp"
#include "gridrm/global/global_layer.hpp"
#include "gridrm/net/network.hpp"
#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

struct Counters {
  // core
  double cacheHits = 0, cacheMisses = 0, coalesced = 0;
  double poolAcquisitions = 0, poolHits = 0;
  double executed[3] = {0, 0, 0};   // interactive, hedge, background
  double maxQueued[3] = {0, 0, 0};  // since the scheduler started
  double bytesPerSample = 0;        // tsdb encoded bytes per raw cell, now
  double planHits = 0, planLookups = 0;
  double eventsDispatched = 0, alertsRaised = 0;
  // store / sql / stream
  double tsdbAppended = 0, tsdbSeals = 0, tsdbRollupRows = 0, tsdbTierHits = 0,
         tsdbPruned = 0;
  double parses = 0, vecRows = 0, vecFallbacks = 0;
  double streamRowsMatched = 0, streamDeltasDropped = 0;
  // global / net
  double lookupHits = 0, directoryLookups = 0, framesSent = 0, rowsShipped = 0;
  double datagrams = 0;

  /// Add one gateway's counters (maxima take the larger value). Reads
  /// the components directly, so no session has to stay alive.
  void addGateway(gridrm::core::Gateway& gw);
  void addGlobal(const gridrm::global::GlobalLayer& layer);
  /// Process-wide counters: SQL parses and the vectorized engine.
  void addProcess();

  /// this - before; maxima keep this run's value.
  Counters minus(const Counters& before) const;
  /// Add a window's deltas; maxima keep the larger value.
  void accumulate(const Counters& delta);
};

/// Sum of requestsServed over `addrs`.
std::uint64_t requestsServed(const gridrm::net::Network& net,
                             const std::vector<gridrm::net::Address>& addrs);
/// Bytes in and out over `addrs` (request and response bodies, datagrams).
std::uint64_t bytesMoved(const gridrm::net::Network& net,
                         const std::vector<gridrm::net::Address>& addrs);

/// Append every per-layer metric of BENCHMARK.json to `out`. `layers`
/// are the tracer's totals over the traced window, `ops` its op count.
/// A layer the workload never reaches reads 0.
void addLayerMetrics(RunResult& out, const Counters& c,
                     const std::vector<LayerTotals>& layers, double ops,
                     double overheadPct);

/// Human-readable per-layer self-time table.
std::string layerTable(const std::vector<LayerTotals>& layers, double ops);

}  // namespace perfbench
