#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "gridrm/drivers/ganglia_driver.hpp"
#include "gridrm/drivers/mds_driver.hpp"
#include "gridrm/drivers/netlogger_driver.hpp"
#include "gridrm/drivers/nws_driver.hpp"
#include "gridrm/drivers/scms_driver.hpp"
#include "gridrm/drivers/snmp_driver.hpp"
#include "gridrm/drivers/sqlsrc_driver.hpp"
#include "measure.hpp"

namespace perfbench {

namespace {

struct ThreadState {
  bool client = false;
  std::uint32_t id = UINT32_MAX;
};
thread_local ThreadState tThread;

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
                       std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : totals_(std::make_unique<Totals[]>(kMaxLayers)), records_(capacity) {}

int Tracer::layer(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  if (names_.size() == kMaxLayers) return static_cast<int>(kMaxLayers - 1);
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

void Tracer::markClientThread() { tThread.client = true; }

Tracer::Scope::Scope(Tracer& tracer, int layer, bool opRoot) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  tracer.open(layer, opRoot);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close();
}

std::vector<Tracer::Frame>& Tracer::threadStack() {
  thread_local std::vector<Frame> stack;
  return stack;
}

void Tracer::open(int layer, bool opRoot) {
  std::vector<Frame>& stack = threadStack();
  if (tThread.id == UINT32_MAX) tThread.id = nextThread_++;
  const std::int64_t slot = nextRecord_++;
  const std::int64_t index =
      slot < static_cast<std::int64_t>(records_.size()) ? slot : -1;
  const bool root = opRoot && tThread.client && stack.empty();
  if (root) {
    ++opCounter_;
    openOpIndex_ = index;
    std::scoped_lock lock(crossMu_);
    crossChildren_.clear();
    opOpen_ = true;
  }
  stack.push_back(Frame{layer, nowNs(), 0, index, root, {}});
}

void Tracer::close() {
  std::vector<Frame>& stack = threadStack();
  Frame f = std::move(stack.back());
  stack.pop_back();
  const std::int64_t end = nowNs();
  const std::int64_t dur = end - f.start;
  std::int64_t self = dur - f.childNs;
  std::int64_t parent = -1;
  if (f.opRoot) {
    {
      std::scoped_lock lock(crossMu_);
      opOpen_ = false;
      f.children.insert(f.children.end(), crossChildren_.begin(), crossChildren_.end());
      crossChildren_.clear();
    }
    self = dur - coveredNs(f.children, f.start, end);
  }
  if (!stack.empty()) {
    Frame& up = stack.back();
    up.childNs += dur;
    if (up.opRoot) up.children.emplace_back(f.start, end);
    parent = up.index;
  } else if (!tThread.client && opOpen_) {
    std::scoped_lock lock(crossMu_);
    if (opOpen_) {
      crossChildren_.emplace_back(f.start, end);
      parent = openOpIndex_;
    }
  }
  Totals& t = totals_[static_cast<std::size_t>(f.layer)];
  ++t.spans;
  t.totalNs += dur;
  t.selfNs += self;
  if (f.index >= 0) {
    Record& r = records_[static_cast<std::size_t>(f.index)];
    r.parent = parent;
    r.op = opCounter_.load();
    r.thread = tThread.id;
    r.layer = f.layer;
    r.start = f.start;
    r.end = end;
    r.self = self;
  }
}

std::vector<LayerTotals> Tracer::totals() const {
  std::vector<LayerTotals> out;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const Totals& t = totals_[i];
    out.push_back({names_[i], t.spans.load(), static_cast<double>(t.totalNs.load()) / 1e3,
                   static_cast<double>(t.selfNs.load()) / 1e3});
  }
  return out;
}

void Tracer::writeSpans(const std::string& path) const {
  std::ofstream out(path);
  out << "span,parent,op,thread,layer,start_ns,end_ns,self_ns\n";
  const auto n = std::min<std::int64_t>(nextRecord_.load(),
                                         static_cast<std::int64_t>(records_.size()));
  for (std::int64_t i = 0; i < n; ++i) {
    const Record& r = records_[static_cast<std::size_t>(i)];
    if (r.layer < 0) continue;
    out << i << ',' << r.parent << ',' << r.op << ',' << r.thread << ','
        << names_[static_cast<std::size_t>(r.layer)] << ',' << r.start << ',' << r.end
        << ',' << r.self << '\n';
  }
}

gridrm::net::Payload TimedHandler::handleRequest(const gridrm::net::Address& from,
                                                 const gridrm::net::Payload& request) {
  Tracer::Scope span(tracer_, requestLayer_);
  return inner_->handleRequest(from, request);
}

void TimedHandler::handleDatagram(const gridrm::net::Address& from,
                                  const gridrm::net::Payload& body) {
  Tracer::Scope span(tracer_, datagramLayer_);
  inner_->handleDatagram(from, body);
}

void ProxySet::wrap(gridrm::net::Network& network, const gridrm::net::Address& addr,
                    gridrm::net::RequestHandler* inner, Tracer& tracer, int requestLayer,
                    int datagramLayer) {
  proxies_.push_back(
      std::make_unique<TimedHandler>(tracer, requestLayer, datagramLayer, inner));
  network.unbind(addr);
  network.bind(addr, proxies_.back().get());
}

namespace {

namespace dbc = gridrm::dbc;

class TimedStatement final : public dbc::Statement {
 public:
  TimedStatement(std::unique_ptr<dbc::Statement> inner, Tracer& tracer, int layer)
      : inner_(std::move(inner)), tracer_(tracer), layer_(layer) {}
  std::unique_ptr<dbc::ResultSet> executeQuery(const std::string& sql) override {
    Tracer::Scope span(tracer_, layer_);
    return inner_->executeQuery(sql);
  }
  std::size_t executeUpdate(const std::string& sql) override {
    Tracer::Scope span(tracer_, layer_);
    return inner_->executeUpdate(sql);
  }

 private:
  std::unique_ptr<dbc::Statement> inner_;
  Tracer& tracer_;
  int layer_;
};

class TimedConnection final : public dbc::Connection {
 public:
  TimedConnection(std::unique_ptr<dbc::Connection> inner, Tracer& tracer, int layer)
      : inner_(std::move(inner)), tracer_(tracer), layer_(layer) {}
  std::unique_ptr<dbc::Statement> createStatement() override {
    return std::make_unique<TimedStatement>(inner_->createStatement(), tracer_, layer_);
  }
  bool isValid() override {
    Tracer::Scope span(tracer_, layer_);
    return inner_->isValid();
  }
  void close() override { inner_->close(); }
  bool isClosed() const override { return inner_->isClosed(); }
  const gridrm::util::Url& url() const override { return inner_->url(); }

 private:
  std::unique_ptr<dbc::Connection> inner_;
  Tracer& tracer_;
  int layer_;
};

class TimedDriver final : public dbc::Driver {
 public:
  TimedDriver(std::shared_ptr<dbc::Driver> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer), layer_(tracer.layer("drivers." + inner_->name())) {}
  std::string name() const override { return inner_->name(); }
  int majorVersion() const override { return inner_->majorVersion(); }
  int minorVersion() const override { return inner_->minorVersion(); }
  bool acceptsUrl(const gridrm::util::Url& url) const override {
    return inner_->acceptsUrl(url);
  }
  std::unique_ptr<dbc::Connection> connect(const gridrm::util::Url& url,
                                           const gridrm::util::Config& props) override {
    Tracer::Scope span(tracer_, layer_);
    return std::make_unique<TimedConnection>(inner_->connect(url, props), tracer_, layer_);
  }

 private:
  std::shared_ptr<dbc::Driver> inner_;
  Tracer& tracer_;
  int layer_;
};

}  // namespace

void installTimedDrivers(gridrm::core::Gateway& gateway, const std::string& adminToken,
                         Tracer& tracer) {
  namespace drv = gridrm::drivers;
  const drv::DriverContext ctx = gateway.driverContext();
  struct Entry {
    std::shared_ptr<dbc::Driver> driver;
    gridrm::glue::DriverSchemaMap map;
  };
  // The order of drivers::registerDefaultDrivers, so driver selection
  // (first acceptsUrl wins) is unchanged.
  std::vector<Entry> entries;
  entries.push_back({std::make_shared<drv::SnmpDriver>(ctx), drv::SnmpDriver::defaultSchemaMap()});
  entries.push_back({std::make_shared<drv::GangliaDriver>(ctx), drv::GangliaDriver::defaultSchemaMap()});
  entries.push_back({std::make_shared<drv::NwsDriver>(ctx), drv::NwsDriver::defaultSchemaMap()});
  entries.push_back({std::make_shared<drv::NetLoggerDriver>(ctx), drv::NetLoggerDriver::defaultSchemaMap()});
  entries.push_back({std::make_shared<drv::ScmsDriver>(ctx), drv::ScmsDriver::defaultSchemaMap()});
  entries.push_back({std::make_shared<drv::SqlSourceDriver>(ctx), drv::SqlSourceDriver::defaultSchemaMap()});
  entries.push_back({std::make_shared<drv::MdsDriver>(ctx), drv::MdsDriver::defaultSchemaMap()});
  for (const auto& e : entries) (void)gateway.unregisterDriver(adminToken, e.driver->name());
  for (auto& e : entries) {
    gateway.registerDriver(adminToken, std::make_shared<TimedDriver>(e.driver, tracer),
                           std::move(e.map));
  }
}

}  // namespace perfbench
