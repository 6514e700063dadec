// The benchmark's three workloads. Each builds the real system from
// seeded inputs, drives it through its public calls for the requested
// time, checks the program's outputs, and returns the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gridrm/agents/site.hpp"
#include "gridrm/net/network.hpp"
#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its spans and layer table into.
  std::string outDir = ".";
};

RunResult runSiteDashboard(const Options& options);
RunResult runSiteHarvest(const Options& options);
RunResult runGridFederation(const Options& options);

/// Addresses of every agent of a site (SNMP per host, then head-node
/// agents that exist).
std::vector<gridrm::net::Address> siteAgentAddresses(gridrm::agents::SiteSimulation& site);

/// Re-bind every agent of `site` to a timing proxy ("agents.<kind>").
void wrapSiteAgents(ProxySet& proxies, gridrm::net::Network& network,
                    gridrm::agents::SiteSimulation& site, Tracer& tracer);

/// Write the traced run's spans and per-layer self-time table under
/// options.outDir, and print the table to stderr.
void writeTrace(const Options& options, const Tracer& tracer, double ops,
                double overheadPct);

}  // namespace perfbench
