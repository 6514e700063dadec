#include <cstdio>
#include <fstream>

#include "counters.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace agents = gridrm::agents;
namespace net = gridrm::net;

std::vector<net::Address> siteAgentAddresses(agents::SiteSimulation& site) {
  std::vector<net::Address> out;
  for (std::size_t i = 0; i < site.snmpAgentCount(); ++i) {
    out.push_back(site.snmpAgent(i).address());
  }
  if (auto* a = site.gangliaAgent()) out.push_back(a->address());
  if (auto* a = site.nwsAgent()) out.push_back(a->address());
  if (auto* a = site.netloggerAgent()) out.push_back(a->address());
  if (auto* a = site.scmsAgent()) out.push_back(a->address());
  if (auto* a = site.sqlAgent()) out.push_back(a->address());
  if (auto* a = site.mdsAgent()) out.push_back(a->address());
  return out;
}

void wrapSiteAgents(ProxySet& proxies, net::Network& network, agents::SiteSimulation& site,
                    Tracer& tracer) {
  auto wrap = [&](net::RequestHandler* agent, const net::Address& addr,
                  const std::string& kind) {
    const int layer = tracer.layer("agents." + kind);
    proxies.wrap(network, addr, agent, tracer, layer, layer);
  };
  for (std::size_t i = 0; i < site.snmpAgentCount(); ++i) {
    wrap(&site.snmpAgent(i), site.snmpAgent(i).address(), "snmp");
  }
  if (auto* a = site.gangliaAgent()) wrap(a, a->address(), "ganglia");
  if (auto* a = site.nwsAgent()) wrap(a, a->address(), "nws");
  if (auto* a = site.netloggerAgent()) wrap(a, a->address(), "netlogger");
  if (auto* a = site.scmsAgent()) wrap(a, a->address(), "scms");
  if (auto* a = site.sqlAgent()) wrap(a, a->address(), "sql");
  if (auto* a = site.mdsAgent()) wrap(a, a->address(), "mds");
}

void writeTrace(const Options& options, const Tracer& tracer, double ops,
                double overheadPct) {
  const std::string stem = options.outDir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  tracer.writeSpans(stem + "-spans.csv");
  char overhead[96];
  std::snprintf(overhead, sizeof overhead, "tracing overhead: %.2f%% (ops=%.0f)\n",
                overheadPct, ops);
  const std::string table = layerTable(tracer.totals(), ops) + overhead;
  std::ofstream(stem + "-layers.txt") << table;
  std::fprintf(stderr, "%s: per-layer self time\n%s", options.workload.c_str(),
               table.c_str());
}

}  // namespace perfbench
