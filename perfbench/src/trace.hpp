// Span tracing from outside the program, for the traced run.
//
// Spans are recorded by the benchmark's own wrappers: around each ACIL
// call, around timing decorators of the real drivers (registered through
// Gateway::registerDriver with their schema maps), and around timing
// proxies re-bound on the simulated network in place of every agent, the
// GMA directory and each GlobalLayer producer endpoint. Network handlers
// run synchronously on the caller's thread, so driver, agent and
// remote-gateway spans nest on one thread, and a layer's self time is
// its span minus its children. Spans opened on scheduler workers while
// an op is open count as children of that op's root span; the traced run
// keeps one client in flight, so that attribution is unambiguous.
//
// Totals per layer accumulate for every span; the first `capacity` span
// records stay in memory and are written out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gridrm/core/gateway.hpp"
#include "gridrm/dbc/driver.hpp"
#include "gridrm/net/network.hpp"

namespace perfbench {

struct LayerTotals {
  std::string name;
  std::uint64_t spans = 0;
  double totalUs = 0;
  double selfUs = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 200000);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Layer id for a name; call during set-up, before spans are recorded.
  int layer(const std::string& name);

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Mark the calling thread as the client thread: its top-level spans
  /// opened with `opRoot` are op roots.
  static void markClientThread();

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, int layer, bool opRoot = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
  };

  /// Per-layer totals, in registration order.
  std::vector<LayerTotals> totals() const;

  /// Write recorded spans as CSV (span, parent, op, thread, layer,
  /// start_ns, end_ns, self_ns).
  void writeSpans(const std::string& path) const;

 private:
  struct Frame {
    int layer;
    std::int64_t start;
    std::int64_t childNs;  // same-thread direct children
    std::int64_t index;    // record slot, -1 when the buffer is full
    bool opRoot;
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
  };
  struct Record {
    std::int64_t parent = -1;
    std::uint64_t op = 0;
    std::uint32_t thread = 0;
    std::int32_t layer = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t self = 0;
  };
  struct Totals {
    std::atomic<std::uint64_t> spans{0};
    std::atomic<std::int64_t> totalNs{0};
    std::atomic<std::int64_t> selfNs{0};
  };

  /// Open spans of the calling thread, innermost last.
  static std::vector<Frame>& threadStack();
  void open(int layer, bool opRoot);
  void close();

  std::atomic<bool> enabled_{false};
  std::vector<std::string> names_;
  std::unique_ptr<Totals[]> totals_;
  static constexpr std::size_t kMaxLayers = 64;

  std::vector<Record> records_;
  std::atomic<std::int64_t> nextRecord_{0};

  std::atomic<std::uint64_t> opCounter_{0};
  std::atomic<std::int64_t> openOpIndex_{-1};
  std::atomic<bool> opOpen_{false};
  std::mutex crossMu_;
  std::vector<std::pair<std::int64_t, std::int64_t>> crossChildren_;
  std::atomic<std::uint32_t> nextThread_{0};
};

/// A network endpoint that forwards to the real handler inside a span.
class TimedHandler final : public gridrm::net::RequestHandler {
 public:
  TimedHandler(Tracer& tracer, int requestLayer, int datagramLayer,
               gridrm::net::RequestHandler* inner)
      : tracer_(tracer),
        requestLayer_(requestLayer),
        datagramLayer_(datagramLayer),
        inner_(inner) {}

  gridrm::net::Payload handleRequest(const gridrm::net::Address& from,
                                     const gridrm::net::Payload& request) override;
  void handleDatagram(const gridrm::net::Address& from,
                      const gridrm::net::Payload& body) override;

 private:
  Tracer& tracer_;
  int requestLayer_;
  int datagramLayer_;
  gridrm::net::RequestHandler* inner_;
};

/// Owns the timing proxies of one system under test. Declare it before
/// the system so it outlives every binding that routes through it.
class ProxySet {
 public:
  /// Re-bind `addr` to a proxy of `inner`.
  void wrap(gridrm::net::Network& network, const gridrm::net::Address& addr,
            gridrm::net::RequestHandler* inner, Tracer& tracer, int requestLayer,
            int datagramLayer);

 private:
  std::vector<std::unique_ptr<TimedHandler>> proxies_;
};

/// Replace every default driver of `gateway` by a timing decorator of a
/// fresh instance of the same driver, registered with its schema map, in
/// the default registration order. Layers are "drivers.<name>".
void installTimedDrivers(gridrm::core::Gateway& gateway, const std::string& adminToken,
                         Tracer& tracer);

}  // namespace perfbench
