// site-dashboard: the interactive read path. One gateway over one
// 32-host full-agent site; a closed loop of one client, waiting for
// each reply, sends per-host SNMP probes, whole-cluster statements,
// WHERE-filtered statements and multi-source site queries, with hosts
// skewed toward a hot set. The cache is on, and every request moves
// simulated time forward so that cached entries expire and a steady
// stream of misses reaches every driver kind.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "counters.hpp"
#include "gridrm/agents/site.hpp"
#include "gridrm/core/gateway.hpp"
#include "gridrm/util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = gridrm::core;
namespace util = gridrm::util;
namespace net = gridrm::net;

constexpr std::size_t kHosts = 32;
/// One client: the process runs on one CPU (see main.cpp), where more
/// clients would only take turns, and with one the sequence of hits and
/// misses follows from the seed alone.
constexpr int kClients = 1;
/// Simulated time each request moves the clock (a 5 s cache TTL then
/// spans about 1250 requests).
constexpr util::Duration kStepUs = 4 * util::kMillisecond;
constexpr std::size_t kSequence = std::size_t{1} << 16;
/// Every Nth reply of a client is checked in full.
constexpr std::uint64_t kCheckEvery = 8;
constexpr int kSetups = 15;
/// Throughput and latency are taken per window of wall time and
/// reported as the median over the run's full windows, so a short
/// stall of the shared machine moves one window, not the result.
constexpr std::int64_t kWindowNs = 500'000'000;

enum class Kind { HostProbe, Cluster, Filtered, MultiSource, Site };

/// One distinct statement (a cache key): its sources, SQL and the
/// property its reply must have.
struct Statement {
  Kind kind;
  std::vector<std::string> urls;
  std::string sql;
  std::string host;         // HostProbe: the probed host
  std::string column;       // Filtered: the WHERE column
  double threshold = 0;     // Filtered: the WHERE bound
  std::size_t expectedRows = 0;  // MultiSource / Site
};

struct World {
  explicit World(std::uint64_t seed, Tracer* tracer);

  ProxySet proxies;  // outlives every binding below
  util::SimClock clock;
  net::Network network;
  gridrm::agents::SiteSimulation site;
  core::Gateway gateway;
  std::string admin;
  std::string client;
  std::vector<std::string> hosts;
  std::vector<std::string> sources;
  std::vector<net::Address> agents;
};

gridrm::agents::SiteOptions siteOptions(std::uint64_t seed) {
  gridrm::agents::SiteOptions o;
  o.siteName = "dash";
  o.hostCount = kHosts;
  o.seed = seed;
  return o;
}

World::World(std::uint64_t seed, Tracer* tracer)
    : network(clock, seed),
      site(network, clock, siteOptions(seed)),
      gateway(network, clock, core::GatewayOptions{}) {
  admin = gateway.openSession(core::Principal::admin());
  client = gateway.openSession(core::Principal::monitor("dashboard"));
  for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(site.cluster().host(i).name());
  // NWS serves only NetworkForecast; leaving it out keeps every site
  // query over Processor answerable by each registered source.
  for (const auto& url : site.dataSourceUrls()) {
    if (url.rfind("jdbc:nws:", 0) == 0) continue;
    gateway.addDataSource(admin, url);
    sources.push_back(url);
  }
  agents = siteAgentAddresses(site);
  if (tracer != nullptr) {
    installTimedDrivers(gateway, admin, *tracer);
    wrapSiteAgents(proxies, network, site, *tracer);
  }
  clock.advance(60 * util::kSecond);
}

/// Rows a source returns for a whole-group statement: one per host for
/// a per-host SNMP agent and for NetLogger (head node only), one per
/// site host for the whole-cluster agents.
std::size_t hostsServed(const std::string& url) {
  if (url.rfind("jdbc:snmp:", 0) == 0 || url.rfind("jdbc:netlogger:", 0) == 0) return 1;
  return kHosts;
}

std::vector<Statement> buildStatements(World& w) {
  std::vector<Statement> out;
  auto& site = w.site;
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::string url = "jdbc:snmp://" + w.hosts[h] + ":161/perfdata";
    out.push_back({Kind::HostProbe, {url}, "SELECT HostName, Load1, Load5, Load15 FROM Processor",
                   w.hosts[h], "", 0, 0});
    out.push_back({Kind::HostProbe, {url}, "SELECT HostName, RAMSize, RAMAvailable FROM Memory",
                   w.hosts[h], "", 0, 0});
  }
  out.push_back({Kind::Cluster, {site.headUrl("ganglia")},
                 "SELECT HostName, CPUCount, Load1 FROM Processor", "", "", 0, 0});
  out.push_back({Kind::Cluster, {site.headUrl("scms")},
                 "SELECT HostName, RAMSize, RAMAvailable FROM Memory", "", "", 0, 0});
  out.push_back({Kind::Cluster, {site.headUrl("sql")},
                 "SELECT HostName, UpTime, ProcessCount FROM Host", "", "", 0, 0});
  out.push_back({Kind::Cluster, {site.headUrl("mds")},
                 "SELECT HostName, CPUCount, ClockSpeed FROM Processor", "", "", 0, 0});
  for (double t : {0.2, 0.5, 1.0, 1.5}) {
    out.push_back({Kind::Filtered, {site.headUrl("ganglia")},
                   "SELECT HostName, Load1 FROM Processor WHERE Load1 > " + std::to_string(t),
                   "", "Load1", t, 0});
    out.push_back({Kind::Filtered, {site.headUrl("scms")},
                   "SELECT HostName, Load5 FROM Processor WHERE Load5 > " + std::to_string(t),
                   "", "Load5", t, 0});
  }
  const std::vector<std::string> multi{site.headUrl("ganglia"), site.headUrl("scms"),
                                       site.headUrl("sql")};
  out.push_back({Kind::MultiSource, multi, "SELECT HostName, Load1, Load15 FROM Processor", "",
                 "", 0, 3 * kHosts});
  std::size_t siteRows = 0;
  for (const auto& url : w.sources) siteRows += hostsServed(url);
  out.push_back({Kind::Site, w.sources, "SELECT HostName, Load1 FROM Processor", "", "", 0,
                 siteRows});
  return out;
}

/// The hosts in order of popularity, shared by every client of a run.
std::vector<std::size_t> hotOrder(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::size_t> perm(kHosts);
  for (std::size_t i = 0; i < kHosts; ++i) perm[i] = i;
  for (std::size_t i = kHosts - 1; i > 0; --i) std::swap(perm[i], perm[rng.below(i + 1)]);
  return perm;
}

/// A client's request sequence: statement indices drawn from the seed.
/// Kinds are weighted toward per-host probes; probed hosts follow a
/// Zipf(1) law over `perm`, so a hot set of hosts takes most probes.
std::vector<std::uint32_t> buildSequence(const std::vector<Statement>& statements,
                                         const std::vector<std::size_t>& perm,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> zipf(kHosts);
  double total = 0;
  for (std::size_t i = 0; i < kHosts; ++i) total += zipf[i] = 1.0 / static_cast<double>(i + 1);
  std::vector<std::uint32_t> byKind[5];
  for (std::uint32_t i = 0; i < statements.size(); ++i) {
    byKind[static_cast<int>(statements[i].kind)].push_back(i);
  }
  std::vector<std::uint32_t> seq;
  seq.reserve(kSequence);
  while (seq.size() < kSequence) {
    const double u = rng.uniform();
    if (u < 0.60) {
      double x = rng.uniform() * total;
      std::size_t rank = 0;
      while (rank + 1 < kHosts && x >= zipf[rank]) x -= zipf[rank++];
      const std::size_t host = perm[rank];
      seq.push_back(static_cast<std::uint32_t>(2 * host + rng.below(2)));
    } else {
      const int kind = u < 0.75 ? 1 : u < 0.90 ? 2 : u < 0.97 ? 3 : 4;
      const auto& pool = byKind[kind];
      seq.push_back(pool[rng.below(pool.size())]);
    }
  }
  return seq;
}

std::string checkReply(const Statement& s, const core::QueryResult& r,
                       const std::vector<std::string>& hosts) {
  const Table t = toTable(r.rows->underlying());
  switch (s.kind) {
    case Kind::HostProbe:
      return checkSingleHost(t, s.host);
    case Kind::Cluster:
      return checkHostsOnce(t, hosts);
    case Kind::Filtered:
      return checkWhere(t, s.column, s.threshold);
    case Kind::MultiSource:
    case Kind::Site:
      return checkSources(t, s.urls, s.expectedRows);
  }
  return "";
}

struct Window {
  LatencyHistogram latency;
  std::uint64_t rows = 0;
};

struct ClientStats {
  std::vector<Window> windows;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string error;
};

void runClient(World& w, const std::vector<Statement>& statements,
               const std::vector<std::uint32_t>& seq, const std::atomic<bool>& stop,
               std::int64_t start, ClientStats& st, Tracer* tracer, int queryLayer,
               int siteLayer) {
  if (tracer != nullptr) Tracer::markClientThread();
  for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const Statement& s = statements[seq[i % seq.size()]];
    w.clock.advance(kStepUs);
    const std::int64_t t0 = nowNs();
    core::QueryResult r;
    {
      std::optional<Tracer::Scope> span;
      if (tracer != nullptr) {
        span.emplace(*tracer, s.kind == Kind::Site ? siteLayer : queryLayer, true);
      }
      r = s.kind == Kind::Site ? w.gateway.submitSiteQuery(w.client, s.sql)
                               : w.gateway.submitQuery(w.client, s.urls, s.sql);
    }
    const auto window = static_cast<std::size_t>((t0 - start) / kWindowNs);
    if (window >= st.windows.size()) st.windows.resize(window + 1);
    st.windows[window].latency.record(nowNs() - t0);
    ++st.ops;
    if (!r.complete() || r.rows == nullptr) {
      ++st.failed;
      continue;
    }
    st.windows[window].rows += r.rows->rowCount();
    if (st.ops % kCheckEvery == 0 && st.error.empty()) {
      st.error = checkReply(s, r, w.hosts);
    }
  }
}

struct Phase {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string error;
  // Medians over full windows.
  double opsPerSecond = 0;
  double p50Us = 0;
  double p99Us = 0;
  double rowsPerSecond = 0;
  // Totals over the run.
  double seconds = 0;
  double cpuUs = 0;
  std::uint64_t agentRequests = 0;
  std::uint64_t bytes = 0;
};

Phase runPhase(World& w, const std::vector<Statement>& statements, std::uint64_t seed,
               int clients, double seconds, Tracer* tracer) {
  const std::vector<std::size_t> perm = hotOrder(seed);
  std::vector<std::vector<std::uint32_t>> seqs;
  for (int c = 0; c < clients; ++c) {
    seqs.push_back(buildSequence(statements, perm, seed * 7919 + static_cast<std::uint64_t>(c)));
  }
  const int queryLayer = tracer ? tracer->layer("acil.query") : -1;
  const int siteLayer = tracer ? tracer->layer("acil.site_query") : -1;
  std::vector<ClientStats> stats(static_cast<std::size_t>(clients));
  std::atomic<bool> stop{false};
  Phase p;
  const std::uint64_t req0 = requestsServed(w.network, w.agents);
  const std::uint64_t bytes0 = bytesMoved(w.network, w.agents);
  const double cpu0 = processCpuUs();
  const std::int64_t t0 = nowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(runClient, std::ref(w), std::cref(statements),
                         std::cref(seqs[static_cast<std::size_t>(c)]), std::cref(stop), t0,
                         std::ref(stats[static_cast<std::size_t>(c)]), tracer, queryLayer,
                         siteLayer);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& t : threads) t.join();
  p.seconds = static_cast<double>(nowNs() - t0) / 1e9;
  p.cpuUs = processCpuUs() - cpu0;
  p.agentRequests = requestsServed(w.network, w.agents) - req0;
  p.bytes = bytesMoved(w.network, w.agents) - bytes0;
  const auto full = static_cast<std::size_t>(p.seconds * 1e9 / static_cast<double>(kWindowNs));
  std::vector<Window> merged(std::max<std::size_t>(full, 1));
  for (auto& s : stats) {
    p.ops += s.ops;
    p.failed += s.failed;
    if (p.error.empty()) p.error = s.error;
    for (std::size_t i = 0; i < merged.size() && i < s.windows.size(); ++i) {
      merged[i].latency.merge(s.windows[i].latency);
      merged[i].rows += s.windows[i].rows;
    }
  }
  const double windowSeconds = full == 0 ? p.seconds : static_cast<double>(kWindowNs) / 1e9;
  std::vector<double> ops, p50, p99, rows;
  for (const auto& m : merged) {
    ops.push_back(static_cast<double>(m.latency.count()) / windowSeconds);
    p50.push_back(m.latency.percentileNs(0.50) / 1e3);
    p99.push_back(m.latency.percentileNs(0.99) / 1e3);
    rows.push_back(static_cast<double>(m.rows) / windowSeconds);
  }
  p.opsPerSecond = median(ops);
  p.p50Us = median(p50);
  p.p99Us = median(p99);
  p.rowsPerSecond = median(rows);
  return p;
}

/// Build the system `kSetups` times, timing each (construction, source
/// registration and one warm-up pass over every statement), and keep
/// the last. Returns the median set-up time.
double setUp(std::unique_ptr<World>& world, std::vector<Statement>& statements,
             std::uint64_t seed, Tracer* tracer, int setups) {
  std::vector<double> times;
  for (int i = 0; i < setups; ++i) {
    world.reset();
    const std::int64_t t0 = nowNs();
    world = std::make_unique<World>(seed, tracer);
    statements = buildStatements(*world);
    for (const auto& s : statements) {
      if (s.kind == Kind::Site) {
        (void)world->gateway.submitSiteQuery(world->client, s.sql);
      } else {
        (void)world->gateway.submitQuery(world->client, s.urls, s.sql);
      }
    }
    times.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }
  return median(times);
}

void report(RunResult& out, const Phase& p) {
  out.attempted += p.ops;
  out.failed += p.failed;
  if (!p.error.empty()) out.fail("site-dashboard: " + p.error);
}

}  // namespace

RunResult runSiteDashboard(const Options& options) {
  RunResult out;
  std::unique_ptr<World> world;
  std::vector<Statement> statements;
  if (!options.trace) {
    const double setup = setUp(world, statements, options.seed, nullptr, kSetups);
    const Phase p = runPhase(*world, statements, options.seed, kClients, options.seconds,
                             nullptr);
    report(out, p);
    const double ops = static_cast<double>(p.ops);
    out.add("setup_s", setup, "s");
    out.add("ops_per_s", p.opsPerSecond, "ops/s");
    out.add("op_p50_us", p.p50Us, "us");
    out.add("op_p99_us", p.p99Us, "us");
    out.add("cpu_us_per_op", ratio(p.cpuUs, ops), "us");
    out.add("agent_requests_per_op", ratio(static_cast<double>(p.agentRequests), ops),
            "requests");
    out.add("net_bytes_per_op", ratio(static_cast<double>(p.bytes), ops), "bytes");
    out.add("samples_per_s", p.rowsPerSecond, "samples/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
  }

  // Traced run: one client in flight. The first half runs untraced, the
  // second half on a fresh system with drivers and agents wrapped; the
  // throughput gap is the tracing overhead.
  (void)setUp(world, statements, options.seed, nullptr, 1);
  const Phase plain = runPhase(*world, statements, options.seed, 1, options.seconds / 2,
                               nullptr);
  report(out, plain);
  Tracer tracer;
  (void)setUp(world, statements, options.seed, &tracer, 1);
  Counters before;
  before.addGateway(world->gateway);
  before.addProcess();
  tracer.setEnabled(true);
  const Phase traced = runPhase(*world, statements, options.seed, 1, options.seconds / 2,
                                &tracer);
  tracer.setEnabled(false);
  report(out, traced);
  Counters after;
  after.addGateway(world->gateway);
  after.addProcess();
  const double ops = static_cast<double>(traced.ops);
  const double overhead = 100.0 * (plain.opsPerSecond / traced.opsPerSecond - 1.0);
  addLayerMetrics(out, after.minus(before), tracer.totals(), ops, overhead);
  writeTrace(options, tracer, ops, overhead);
  return out;
}

}  // namespace perfbench
