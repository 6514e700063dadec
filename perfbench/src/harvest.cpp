// site-harvest: the write path. One gateway over a 64-host full-agent
// site. A SitePoller harvests every host's SNMP agent and the head-node
// whole-cluster agents every 30 simulated seconds with history recording
// into the tsdb; a continuous query and an alert rule are fed by the
// polls, and SNMP traps go to the Event Manager. After each round the
// generator thread issues two historical statements: a time-windowed
// GROUP BY and a full GROUP BY HostName over the growing store. The one
// generator thread advances simulated time as fast as the gateway allows.
//
// The run is a sequence of whole episodes, each a fresh system harvested
// for kRounds rounds, so every episode stores the same number of rows
// and every run attempts whole rounds of the same polls.
//
// Kept failure: the head-node Ganglia poll projects Processor with a
// different arity than the per-host SNMP polls. RequestManager fixes
// the History<Group> schema from the first recorded projection, so this
// poll fails every round with "insert arity mismatch". Set-up records
// the SNMP projection once, so which poll fails never depends on a race.
#include <algorithm>
#include <map>
#include <memory>

#include "checks.hpp"
#include "counters.hpp"
#include "gridrm/agents/site.hpp"
#include "gridrm/core/alert_manager.hpp"
#include "gridrm/core/gateway.hpp"
#include "gridrm/core/site_poller.hpp"
#include "gridrm/util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = gridrm::core;
namespace util = gridrm::util;
namespace net = gridrm::net;

constexpr std::size_t kHosts = 64;
constexpr std::size_t kRounds = 120;  // one simulated hour per episode
constexpr util::Duration kInterval = 30 * util::kSecond;
/// Historical statements are checked against the reference aggregation
/// every Nth round and on the last round of an episode.
constexpr std::size_t kCheckEvery = 15;
/// Tier maintenance (rollup sealing) runs every 10 rounds.
constexpr std::size_t kRetentionEvery = 10;

const char* const kSnmpSql =
    "SELECT HostName, ClusterName, Load1, Load5, Load15, UserPct FROM Processor";
const char* const kGangliaSql = "SELECT HostName, Load1, Load15 FROM Processor";

struct HeadTask {
  const char* kind;
  const char* sql;
  const char* table;
};
// Ganglia shares HistoryProcessor with the SNMP polls (the kept fault);
// every other head-node agent feeds a history table of its own.
const HeadTask kHeadTasks[] = {
    {"ganglia", kGangliaSql, "Processor"},
    {"scms", "SELECT HostName, RAMSize, RAMAvailable FROM Memory", "Memory"},
    {"sql", "SELECT HostName, UpTime, ProcessCount FROM Host", "Host"},
    {"mds", "SELECT HostName, Name, Speed, InBytes, OutBytes FROM NetworkAdapter",
     "NetworkAdapter"},
    {"netlogger", "SELECT HostName, Root, AvailableSpace FROM FileSystem", "FileSystem"},
};

core::GatewayOptions gatewayOptions() {
  core::GatewayOptions o;
  o.name = "harvest";
  // Keep every raw row for the episode: the row-conservation check
  // counts all of them.
  o.tsdb.rawTtl = 0;
  return o;
}

gridrm::agents::SiteOptions siteOptions(std::uint64_t seed) {
  gridrm::agents::SiteOptions o;
  o.siteName = "farm";
  o.hostCount = kHosts;
  o.seed = seed;
  return o;
}

struct World {
  World(std::uint64_t seed, Tracer* tracer);

  ProxySet proxies;  // outlives every binding below
  util::SimClock clock;
  net::Network network;
  gridrm::agents::SiteSimulation site;
  core::Gateway gateway;
  std::string admin;
  core::AlertManager alerts;
  core::SitePoller poller;
  std::vector<PolledSource> polled;
  std::vector<net::Address> endpoints;  // agents plus the trap sink
  std::vector<net::Address> agents;
};

World::World(std::uint64_t seed, Tracer* tracer)
    : network(clock, seed),
      site(network, clock, siteOptions(seed)),
      gateway(network, clock, gatewayOptions()),
      admin(gateway.openSession(core::Principal::admin())),
      alerts(gateway.requestManager(), gateway.eventManager(), clock),
      poller(gateway.requestManager(), clock, core::Principal::monitor("harvester"),
             &alerts) {
  std::vector<std::string> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(site.cluster().host(i).name());
  for (std::size_t i = 0; i < kHosts; ++i) {
    const std::string url = "jdbc:snmp://" + hosts[i] + ":161/perfdata";
    gateway.addDataSource(admin, url);
    poller.addTask({url, kSnmpSql, kInterval, true, true});
    polled.push_back({url, {hosts[i]}});
  }
  for (const auto& t : kHeadTasks) {
    const std::string url = site.headUrl(t.kind);
    gateway.addDataSource(admin, url);
    poller.addTask({url, t.sql, kInterval, true, true});
    const bool headOnly = std::string(t.kind) == "netlogger";
    polled.push_back({url, headOnly ? std::vector<std::string>{hosts[0]} : hosts});
  }
  agents = siteAgentAddresses(site);
  endpoints = agents;
  endpoints.push_back(gateway.eventAddress());
  site.setTrapSink(gateway.eventAddress());
  poller.setStreamSink(&gateway.streamEngine());
  (void)gateway.subscribeQuery(
      admin, "", "SELECT HostName, Load1 FROM Processor WHERE Load1 > 1.0",
      [](const gridrm::stream::StreamDelta&) {});
  alerts.addRule({"hot-head", polled.front().url, kSnmpSql, "Load1 > 1.0",
                  core::Severity::Warning, "HostName", 5 * 60 * util::kSecond});
  if (tracer != nullptr) {
    installTimedDrivers(gateway, admin, *tracer);
    wrapSiteAgents(proxies, network, site, *tracer);
  }
  clock.advance(60 * util::kSecond);
  // Fix HistoryProcessor to the SNMP projection before any poll runs,
  // by recording an empty result that carries its columns.
  core::QueryOptions probe;
  probe.useCache = false;
  core::QueryResult first = gateway.submitQuery(admin, {polled.front().url}, kSnmpSql, probe);
  if (!first.complete()) {
    throw std::runtime_error("SNMP probe failed: " + first.failures.front().message);
  }
  gateway.requestManager().recordHistoryRows(
      polled.front().url, "Processor",
      gridrm::dbc::VectorResultSet(first.rows->metaData(), {}));
}

struct Tally {
  LatencyHistogram history;  // historical statements
  std::vector<double> setups;
  // Per episode, so a stall of the shared machine moves one episode's
  // figures and the reported median stays put.
  std::vector<double> pollsPerSecond;
  std::vector<double> cpuUsPerPoll;
  std::vector<double> samplesPerSecond;
  double seconds = 0;        // rounds, excluding checks
  double cpuUs = 0;
  std::uint64_t polls = 0;
  std::uint64_t failedPolls = 0;
  std::uint64_t agentRequests = 0;
  std::uint64_t bytes = 0;
  std::string error;
  // traced runs
  Counters layers;
};

Counters snapshot(World& w) {
  Counters c;
  c.addGateway(w.gateway);
  c.addProcess();
  c.datagrams = static_cast<double>(w.network.totalDatagrams());
  c.alertsRaised = static_cast<double>(w.alerts.stats().alertsRaised);
  return c;
}

std::string historyCheck(core::Gateway& gw, const std::string& admin,
                         const std::string& where, const std::string& column,
                         const Table& actual) {
  auto plain = gw.submitHistoricalQuery(
      admin, "SELECT HostName, " + column + " FROM HistoryProcessor" + where);
  return checkAggregate(actual, "HostName", 1, 2, 3,
                        aggregate(toTable(*plain), "HostName", column));
}

std::map<std::pair<std::string, std::string>, std::uint64_t> historyCounts(
    core::Gateway& gw, const std::string& admin) {
  std::map<std::pair<std::string, std::string>, std::uint64_t> counts;
  for (const auto& t : kHeadTasks) {
    const std::string table = std::string("History") + t.table;
    if (!gw.database().hasTable(table)) continue;
    auto rs = gw.submitHistoricalQuery(admin, "SELECT Source, HostName FROM " + table);
    for (const auto& row : rs->rows()) ++counts[{row[0].toString(), row[1].toString()}];
  }
  return counts;
}

/// One episode: set up a fresh system, harvest kRounds rounds with the
/// historical statements after each, then check row conservation.
void runEpisode(std::uint64_t seed, std::uint64_t episode, Tally& tally, Tracer* tracer) {
  const std::int64_t s0 = nowNs();
  World w(seed, tracer);
  tally.setups.push_back(static_cast<double>(nowNs() - s0) / 1e9);
  util::Rng rng(seed * 1000003 + episode);
  const int historyLayer = tracer ? tracer->layer("acil.historical") : -1;
  const int pollLayer = tracer ? tracer->layer("core.poller") : -1;

  Counters before;
  Counters checkWork;
  if (tracer != nullptr) {
    before = snapshot(w);
    tracer->setEnabled(true);
  }
  const double seconds0 = tally.seconds;
  const double cpuUs0 = tally.cpuUs;
  const auto poll0 = w.poller.stats();
  const auto rm0 = w.gateway.requestManager().stats();
  const std::uint64_t req0 = requestsServed(w.network, w.agents);
  const std::uint64_t bytes0 = bytesMoved(w.network, w.endpoints);

  for (std::size_t round = 1; round <= kRounds; ++round) {
    w.clock.advance(kInterval);
    const double cpu0 = processCpuUs();
    const std::int64_t t0 = nowNs();
    w.site.pollTraps();
    {
      std::optional<Tracer::Scope> span;
      if (tracer != nullptr) span.emplace(*tracer, pollLayer, true);
      (void)w.poller.tick();
      if (round % kRetentionEvery == 0) (void)w.gateway.enforceRetention();
    }
    const util::TimePoint hi = w.clock.now() / (60 * util::kSecond) * (60 * util::kSecond);
    const util::TimePoint lo = hi - static_cast<util::Duration>(5 + rng.below(16)) * 60 *
                                        util::kSecond;
    const std::string where = " WHERE RecordedAt >= " + std::to_string(lo) +
                              " AND RecordedAt < " + std::to_string(hi);
    const std::string windowed =
        "SELECT HostName, COUNT(*), AVG(Load1), MAX(Load1) FROM HistoryProcessor" + where +
        " GROUP BY HostName";
    const std::string full =
        "SELECT HostName, COUNT(*), AVG(Load5), MAX(Load5) FROM HistoryProcessor "
        "GROUP BY HostName";
    std::unique_ptr<gridrm::dbc::VectorResultSet> results[2];
    const std::string* statements[2] = {&windowed, &full};
    for (int q = 0; q < 2; ++q) {
      const std::int64_t q0 = nowNs();
      std::optional<Tracer::Scope> span;
      if (tracer != nullptr) span.emplace(*tracer, historyLayer, true);
      results[q] = w.gateway.submitHistoricalQuery(w.admin, *statements[q]);
      span.reset();
      tally.history.record(nowNs() - q0);
    }
    tally.seconds += static_cast<double>(nowNs() - t0) / 1e9;
    tally.cpuUs += processCpuUs() - cpu0;

    if ((round % kCheckEvery == 0 || round == kRounds) && tally.error.empty()) {
      // The check's plain SELECTs parse and scan too: keep their counters
      // out of the traced window.
      if (tracer != nullptr) tracer->setEnabled(false);
      Counters checkBefore;
      if (tracer != nullptr) checkBefore = snapshot(w);
      tally.error = historyCheck(w.gateway, w.admin, where, "Load1", toTable(*results[0]));
      if (tally.error.empty()) {
        tally.error = historyCheck(w.gateway, w.admin, "", "Load5", toTable(*results[1]));
      }
      if (!tally.error.empty()) tally.error = "round " + std::to_string(round) + ": " + tally.error;
      if (tracer != nullptr) {
        checkWork.accumulate(snapshot(w).minus(checkBefore));
        tracer->setEnabled(true);
      }
    }
  }
  if (tracer != nullptr) tracer->setEnabled(false);

  const auto poll1 = w.poller.stats();
  const std::uint64_t polls = poll1.polls - poll0.polls;
  const std::uint64_t failed = poll1.pollFailures - poll0.pollFailures;
  const std::uint64_t samples =
      w.gateway.requestManager().stats().rowsRecorded - rm0.rowsRecorded;
  const double seconds = tally.seconds - seconds0;
  tally.pollsPerSecond.push_back(static_cast<double>(polls) / seconds);
  tally.cpuUsPerPoll.push_back((tally.cpuUs - cpuUs0) / static_cast<double>(polls));
  tally.samplesPerSecond.push_back(static_cast<double>(samples) / seconds);
  tally.polls += polls;
  tally.failedPolls += failed;
  tally.agentRequests += requestsServed(w.network, w.agents) - req0;
  tally.bytes += bytesMoved(w.network, w.endpoints) - bytes0;
  if (tracer != nullptr) tally.layers.accumulate(snapshot(w).minus(before).minus(checkWork));
  if (!tally.error.empty()) return;
  if (polls != kRounds * w.poller.taskCount()) {
    tally.error = "episode polled " + std::to_string(polls) + " times, schedule says " +
                  std::to_string(kRounds * w.poller.taskCount());
    return;
  }
  tally.error = checkConservation(w.polled, kRounds, failed, historyCounts(w.gateway, w.admin));
}

Tally runEpisodes(std::uint64_t seed, double seconds, Tracer* tracer, std::uint64_t& episode) {
  Tally tally;
  const std::int64_t end = nowNs() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    runEpisode(seed, episode++, tally, tracer);
  } while (nowNs() < end && tally.error.empty());
  return tally;
}

}  // namespace

RunResult runSiteHarvest(const Options& options) {
  RunResult out;
  std::uint64_t episode = 0;
  if (!options.trace) {
    const Tally t = runEpisodes(options.seed, options.seconds, nullptr, episode);
    out.attempted = t.polls;
    out.failed = t.failedPolls;
    if (!t.error.empty()) out.fail("site-harvest: " + t.error);
    const double polls = static_cast<double>(t.polls);
    out.add("setup_s", median(t.setups), "s");
    out.add("ops_per_s", median(t.pollsPerSecond), "ops/s");
    out.add("op_p50_us", t.history.percentileNs(0.50) / 1e3, "us");
    out.add("op_p99_us", t.history.percentileNs(0.99) / 1e3, "us");
    out.add("cpu_us_per_op", median(t.cpuUsPerPoll), "us");
    out.add("agent_requests_per_op", ratio(static_cast<double>(t.agentRequests), polls),
            "requests");
    out.add("net_bytes_per_op", ratio(static_cast<double>(t.bytes), polls), "bytes");
    out.add("samples_per_s", median(t.samplesPerSecond), "samples/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
  }

  // Traced run: the first half runs untraced episodes, the second half
  // episodes with drivers and agents wrapped; the poll-throughput gap is
  // the tracing overhead.
  const Tally plain = runEpisodes(options.seed, options.seconds / 2, nullptr, episode);
  Tracer tracer;
  Tracer::markClientThread();
  const Tally traced = runEpisodes(options.seed, options.seconds / 2, &tracer, episode);
  out.attempted = plain.polls + traced.polls;
  out.failed = plain.failedPolls + traced.failedPolls;
  if (!plain.error.empty()) out.fail("site-harvest: " + plain.error);
  if (!traced.error.empty()) out.fail("site-harvest: " + traced.error);
  const double ops = static_cast<double>(traced.polls);
  const double overhead =
      100.0 * (median(plain.pollsPerSecond) / median(traced.pollsPerSecond) - 1.0);
  addLayerMetrics(out, traced.layers, tracer.totals(), ops, overhead);
  writeTrace(options, tracer, ops, overhead);
  return out;
}

}  // namespace perfbench
