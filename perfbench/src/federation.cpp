// grid-federation: the global layer. A sim::Topology of 4 gateways x 16
// hosts; one client at gateway 0 sends, in a closed loop with caches
// off, a mix of a push-down GROUP BY ClusterName aggregate and a
// push-down WHERE ... ORDER BY ... LIMIT through federatedQuery, and
// globalQuery over remote head nodes (the GQUERY relay). After each
// request the client runs the topology's event loop 50 simulated ms
// forward, so directory leases renew and lookup-cache entries expire.
//
// Liveness: no request is in flight while the loop runs, and the run
// never calls Topology::quiesce() or Scheduler::waitIdle() (see the
// README: Scheduler::submit wakes its shared condition variable with
// notify_one, which a waitIdle caller can swallow).
#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "counters.hpp"
#include "gridrm/sim/topology.hpp"
#include "gridrm/util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = gridrm::core;
namespace util = gridrm::util;
namespace net = gridrm::net;
namespace sim = gridrm::sim;

constexpr std::size_t kGateways = 4;
constexpr std::size_t kHostsPerGateway = 16;
constexpr util::Duration kStepUs = 50 * util::kMillisecond;
constexpr std::size_t kSequence = 4000;
/// Every Nth request is checked against the owning gateways' rows.
constexpr std::uint64_t kCheckEvery = 8;
constexpr int kSetups = 15;
/// Throughput, CPU and the median latency are taken per window of at
/// least this much measured time (about 1000 requests) and reported as
/// the median over windows, so a stall of the shared machine moves one
/// window, not the result. p99 is taken over the whole run: a window's
/// p99 rests on about ten requests, and with one client a stall delays
/// only the request in flight.
constexpr double kWindowSeconds = 1.0;

enum class Kind { Aggregate, TopK, Relay };
/// Requests per block of the mix (see buildRequests).
constexpr std::size_t kBlock = 10;

struct Request {
  Kind kind;
  std::string sql;
  std::vector<std::string> urls;
  std::string column;  // Aggregate: the aggregated column
  double threshold = 0;  // TopK: WHERE bound
  std::size_t k = 0;     // TopK: LIMIT
};

std::string snmpUrl(sim::Topology& topo, std::size_t gw, std::size_t host) {
  return "jdbc:snmp://" + topo.site(gw).cluster().host(host).name() + ":161/perfdata";
}

/// The client's request sequence, drawn from the seed. Every block of
/// ten requests holds exactly four aggregates over every site's Ganglia
/// head node (per-host SNMP agents report no ClusterName), three top-k
/// over every host's SNMP agent and three relays over one head node and
/// one other host of each remote site, in a seeded order; the seed also
/// draws each request's column, bound, k and relayed hosts.
std::vector<Request> buildRequests(sim::Topology& topo, std::uint64_t seed) {
  util::Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  std::vector<std::string> all;
  std::vector<std::string> ganglia;
  for (std::size_t g = 0; g < kGateways; ++g) {
    for (std::size_t h = 0; h < kHostsPerGateway; ++h) all.push_back(snmpUrl(topo, g, h));
    ganglia.push_back(topo.site(g).headUrl("ganglia"));
  }
  const char* columns[] = {"Load1", "Load5", "Load15"};
  Kind block[kBlock] = {Kind::Aggregate, Kind::Aggregate, Kind::Aggregate, Kind::Aggregate,
                        Kind::TopK,      Kind::TopK,      Kind::TopK,      Kind::Relay,
                        Kind::Relay,     Kind::Relay};
  std::vector<Request> out;
  while (out.size() < kSequence) {
    for (std::size_t i = kBlock - 1; i > 0; --i) std::swap(block[i], block[rng.below(i + 1)]);
    for (Kind kind : block) {
      if (kind == Kind::Aggregate) {
        const std::string c = columns[rng.below(3)];
        out.push_back({kind,
                       "SELECT ClusterName, COUNT(*), AVG(" + c + "), MAX(" + c +
                           ") FROM Processor GROUP BY ClusterName",
                       ganglia, c, 0, 0});
      } else if (kind == Kind::TopK) {
        const double t = 0.25 * static_cast<double>(rng.below(3));
        const std::size_t k = std::size_t{5} << rng.below(3);
        out.push_back({kind,
                       "SELECT HostName, Load1 FROM Processor WHERE Load1 > " +
                           std::to_string(t) + " ORDER BY Load1 DESC LIMIT " + std::to_string(k),
                       all, "Load1", t, k});
      } else {
        std::vector<std::string> urls;
        for (std::size_t g = 1; g < kGateways; ++g) {
          urls.push_back(snmpUrl(topo, g, 0));
          urls.push_back(snmpUrl(topo, g, 1 + rng.below(kHostsPerGateway - 1)));
        }
        out.push_back({kind, "SELECT HostName, Load1, Load5 FROM Processor", urls, "", 0, 0});
      }
    }
  }
  return out;
}

struct World {
  World(std::uint64_t seed, Tracer* tracer);

  ProxySet proxies;  // outlives every binding inside the topology
  std::unique_ptr<sim::Topology> topo;
  std::vector<net::Address> agents;
  std::vector<net::Address> endpoints;  // agents, directory, producers, event sinks
};

World::World(std::uint64_t seed, Tracer* tracer) {
  sim::TopologyOptions o;
  o.gateways = kGateways;
  o.hostsPerGateway = kHostsPerGateway;
  o.seed = seed;
  o.fullAgentSet = true;
  o.gatewayBase.cacheTtl = 0;  // caches off: every request reaches the agents
  topo = std::make_unique<sim::Topology>(o);
  for (std::size_t g = 0; g < kGateways; ++g) {
    for (const auto& a : siteAgentAddresses(topo->site(g))) agents.push_back(a);
  }
  endpoints = agents;
  endpoints.push_back(topo->directoryAddress());
  for (std::size_t g = 0; g < kGateways; ++g) {
    endpoints.push_back(topo->globalLayer(g)->producerAddress());
    endpoints.push_back(topo->gateway(g).eventAddress());
  }
  if (tracer == nullptr) return;
  net::Network& network = topo->network();
  for (std::size_t g = 0; g < kGateways; ++g) {
    installTimedDrivers(topo->gateway(g), topo->adminToken(g), *tracer);
    wrapSiteAgents(proxies, network, topo->site(g), *tracer);
    proxies.wrap(network, topo->globalLayer(g)->producerAddress(), topo->globalLayer(g),
                 *tracer, tracer->layer("global.serve"), tracer->layer("global.frames"));
  }
  const int directory = tracer->layer("global.directory");
  proxies.wrap(network, topo->directoryAddress(), &topo->directory(), *tracer, directory,
               directory);
}

/// Rows of `sql` over `urls` fetched from each owning gateway's local
/// submitQuery, unioned. Called with no loop step since the request, so
/// at the same simulated instant.
Table ownerRows(sim::Topology& topo, const std::vector<std::string>& urls,
                const std::string& sql) {
  core::QueryOptions opts;
  opts.useCache = false;
  Table all;
  for (std::size_t g = 0; g < kGateways; ++g) {
    std::vector<std::string> owned;
    for (const auto& url : urls) {
      if (url.find("//site" + std::to_string(g) + "-") != std::string::npos) owned.push_back(url);
    }
    core::QueryResult r = topo.gateway(g).submitQuery(topo.adminToken(g), owned, sql, opts);
    if (!r.complete() || r.rows == nullptr) {
      throw std::runtime_error("owner query at gw" + std::to_string(g) + " failed");
    }
    Table t = toTable(r.rows->underlying());
    if (all.columns.empty()) all.columns = t.columns;
    for (auto& row : t.rows) all.rows.push_back(std::move(row));
  }
  return all;
}

std::string checkRequest(sim::Topology& topo, const Request& req, const Table& got) {
  switch (req.kind) {
    case Kind::Aggregate: {
      const Table pool = ownerRows(topo, req.urls, "SELECT ClusterName, " + req.column + " FROM Processor");
      return checkAggregate(got, "ClusterName", 1, 2, 3,
                            aggregate(pool, "ClusterName", req.column));
    }
    case Kind::TopK: {
      const Table pool = ownerRows(topo, req.urls,
                                   "SELECT HostName, Load1 FROM Processor WHERE Load1 > " +
                                             std::to_string(req.threshold));
      return checkTopK(got, pool, "HostName", "Load1", req.k);
    }
    case Kind::Relay:
      return checkOneRowPerUrl(got, req.urls);
  }
  return "";
}

struct Phase {
  // Medians over windows.
  double p50Us = 0;
  double p99Us = 0;
  double opsPerSecond = 0;
  double cpuUsPerOp = 0;
  double rowsPerSecond = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t rows = 0;
  double seconds = 0;  // requests and loop steps, excluding checks
  double cpuUs = 0;
  std::uint64_t agentRequests = 0;
  std::uint64_t bytes = 0;
  std::string error;
  Counters layers;
};

Counters snapshot(World& w) {
  Counters c;
  for (std::size_t g = 0; g < kGateways; ++g) {
    c.addGateway(w.topo->gateway(g));
    c.addGlobal(*w.topo->globalLayer(g));
  }
  c.addProcess();
  c.datagrams = static_cast<double>(w.topo->network().totalDatagrams());
  return c;
}

Phase runPhase(World& w, std::uint64_t seed, double seconds, Tracer* tracer) {
  sim::Topology& topo = *w.topo;
  const std::vector<Request> requests = buildRequests(topo, seed);
  const int coordinator = tracer ? tracer->layer("global.coordinator") : -1;
  core::QueryOptions opts;
  opts.useCache = false;
  Phase p;
  const Counters before = snapshot(w);
  const std::uint64_t req0 = requestsServed(topo.network(), w.agents);
  const std::uint64_t bytes0 = bytesMoved(topo.network(), w.endpoints);
  if (tracer != nullptr) tracer->setEnabled(true);
  std::vector<double> rates, cpu, rowRates, p50;
  LatencyHistogram latency;  // of the current window
  LatencyHistogram runLatency;
  Counters checkWork;
  std::uint64_t checkRequests = 0, checkBytes = 0;
  double windowStart = 0, windowCpu = 0;
  std::uint64_t windowOps = 0, windowRows = 0;
  const std::int64_t end = nowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; nowNs() < end; ++i) {
    const Request& req = requests[i % requests.size()];
    const double cpu0 = processCpuUs();
    const std::int64_t t0 = nowNs();
    core::QueryResult r;
    {
      std::optional<Tracer::Scope> span;
      if (tracer != nullptr) span.emplace(*tracer, coordinator, true);
      gridrm::global::GlobalLayer& global = *topo.globalLayer(0);
      r = req.kind == Kind::Relay ? global.globalQuery(topo.adminToken(0), req.urls, req.sql, opts)
                                  : global.federatedQuery(topo.adminToken(0), req.urls, req.sql,
                                                          opts);
    }
    const std::int64_t t1 = nowNs();
    latency.record(t1 - t0);
    runLatency.record(t1 - t0);
    ++p.ops;
    const bool ok = r.complete() && r.rows != nullptr;
    if (!ok) {
      ++p.failed;
    } else {
      p.rows += r.rows->rowCount();
    }
    if (ok && p.ops % kCheckEvery == 0 && p.error.empty()) {
      // The check's own queries reach the agents too: keep their time,
      // CPU, traffic and counters out of the measurement.
      if (tracer != nullptr) tracer->setEnabled(false);
      const double cpuCheck = processCpuUs();
      const std::int64_t c0 = nowNs();
      const std::uint64_t checkReq0 = requestsServed(topo.network(), w.agents);
      const std::uint64_t checkBytes0 = bytesMoved(topo.network(), w.endpoints);
      const Counters checkBefore = tracer != nullptr ? snapshot(w) : Counters{};
      p.error = checkRequest(topo, req, toTable(r.rows->underlying()));
      if (tracer != nullptr) checkWork.accumulate(snapshot(w).minus(checkBefore));
      checkRequests += requestsServed(topo.network(), w.agents) - checkReq0;
      checkBytes += bytesMoved(topo.network(), w.endpoints) - checkBytes0;
      p.seconds -= static_cast<double>(nowNs() - c0) / 1e9;
      p.cpuUs -= processCpuUs() - cpuCheck;
      if (tracer != nullptr) tracer->setEnabled(true);
    }
    topo.loop().runFor(kStepUs);
    p.seconds += static_cast<double>(nowNs() - t0) / 1e9;
    p.cpuUs += processCpuUs() - cpu0;
    ++windowOps;
    if (ok) windowRows += r.rows->rowCount();
    if (p.seconds - windowStart >= kWindowSeconds) {
      const double span = p.seconds - windowStart;
      rates.push_back(static_cast<double>(windowOps) / span);
      cpu.push_back((p.cpuUs - windowCpu) / static_cast<double>(windowOps));
      rowRates.push_back(static_cast<double>(windowRows) / span);
      p50.push_back(latency.percentileNs(0.50) / 1e3);
      latency = LatencyHistogram();
      windowStart = p.seconds;
      windowCpu = p.cpuUs;
      windowOps = windowRows = 0;
    }
  }
  if (rates.empty()) {  // a run shorter than one window
    rates.push_back(static_cast<double>(p.ops) / p.seconds);
    cpu.push_back(p.cpuUs / static_cast<double>(p.ops));
    rowRates.push_back(static_cast<double>(p.rows) / p.seconds);
    p50.push_back(latency.percentileNs(0.50) / 1e3);
  }
  p.p50Us = median(p50);
  p.p99Us = runLatency.percentileNs(0.99) / 1e3;
  p.opsPerSecond = median(rates);
  p.cpuUsPerOp = median(cpu);
  p.rowsPerSecond = median(rowRates);
  if (tracer != nullptr) tracer->setEnabled(false);
  p.agentRequests = requestsServed(topo.network(), w.agents) - req0 - checkRequests;
  p.bytes = bytesMoved(topo.network(), w.endpoints) - bytes0 - checkBytes;
  p.layers = snapshot(w).minus(before).minus(checkWork);
  return p;
}

/// Build the topology `setups` times, timing each (construction plus
/// one block of requests, so plan caches, pools and directory lookups
/// are warm), and keep the last. Returns the median set-up time.
double setUp(std::unique_ptr<World>& world, std::uint64_t seed, Tracer* tracer, int setups) {
  std::vector<double> times;
  for (int i = 0; i < setups; ++i) {
    world.reset();
    const std::int64_t t0 = nowNs();
    world = std::make_unique<World>(seed, tracer);
    sim::Topology& topo = *world->topo;
    core::QueryOptions opts;
    opts.useCache = false;
    const std::vector<Request> requests = buildRequests(topo, seed);
    for (std::size_t r = 0; r < kBlock; ++r) {
      const Request& req = requests[r];
      gridrm::global::GlobalLayer& global = *topo.globalLayer(0);
      (void)(req.kind == Kind::Relay
                 ? global.globalQuery(topo.adminToken(0), req.urls, req.sql, opts)
                 : global.federatedQuery(topo.adminToken(0), req.urls, req.sql, opts));
    }
    times.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }
  return median(times);
}

}  // namespace

RunResult runGridFederation(const Options& options) {
  RunResult out;
  std::unique_ptr<World> world;
  if (!options.trace) {
    const double setup = setUp(world, options.seed, nullptr, kSetups);
    const Phase p = runPhase(*world, options.seed, options.seconds, nullptr);
    out.attempted = p.ops;
    out.failed = p.failed;
    if (!p.error.empty()) out.fail("grid-federation: " + p.error);
    const double ops = static_cast<double>(p.ops);
    out.add("setup_s", setup, "s");
    out.add("ops_per_s", p.opsPerSecond, "ops/s");
    out.add("op_p50_us", p.p50Us, "us");
    out.add("op_p99_us", p.p99Us, "us");
    out.add("cpu_us_per_op", p.cpuUsPerOp, "us");
    out.add("agent_requests_per_op", ratio(static_cast<double>(p.agentRequests), ops),
            "requests");
    out.add("net_bytes_per_op", ratio(static_cast<double>(p.bytes), ops), "bytes");
    out.add("samples_per_s", p.rowsPerSecond, "samples/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
  }

  // Traced run: the first half untraced, the second half on a fresh
  // topology with drivers, agents, producers and the directory wrapped.
  (void)setUp(world, options.seed, nullptr, 1);
  const Phase plain = runPhase(*world, options.seed, options.seconds / 2, nullptr);
  Tracer tracer;
  Tracer::markClientThread();
  (void)setUp(world, options.seed, &tracer, 1);
  const Phase traced = runPhase(*world, options.seed, options.seconds / 2, &tracer);
  out.attempted = plain.ops + traced.ops;
  out.failed = plain.failed + traced.failed;
  if (!plain.error.empty()) out.fail("grid-federation: " + plain.error);
  if (!traced.error.empty()) out.fail("grid-federation: " + traced.error);
  const double ops = static_cast<double>(traced.ops);
  const double overhead = 100.0 * (plain.opsPerSecond / traced.opsPerSecond - 1.0);
  addLayerMetrics(out, traced.layers, tracer.totals(), ops, overhead);
  writeTrace(options, tracer, ops, overhead);
  return out;
}

}  // namespace perfbench
