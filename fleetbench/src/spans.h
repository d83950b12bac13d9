// In-memory span log of the traced run.
//
// A span is one call into one layer: its name (Layer), the request it
// belongs to (the wire trace id every hop of a traced request carries),
// start and end on this process's steady clock, and its parent span. A
// parent on the same thread is the enclosing open span; a parent on
// another thread or hop (router -> server, load generator -> router) is
// resolved after the run from the shared request id and server index.
// Spans are appended to per-thread buffers while recording is enabled and
// only read once every recording thread has stopped.

#ifndef FLEETBENCH_SPANS_H_
#define FLEETBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace fleetbench {

enum class Layer : uint8_t {
  kLoadCall,    // load generator -> router Channel::Call
  kRouter,      // RouterCore::HandleFrame
  kRouterCall,  // router -> range server Channel::Call
  kServer,      // AdsServerCore::HandleFrame
  kRange,       // AdsBackend::Range
  kViewOf,      // AdsBackend::ViewOf
  kHipOf,       // AdsBackend::HipOf
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: none on this thread (resolved by request)
  uint64_t req = 0;     // request id (trace id low word); 0 = untraced
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::kLoadCall;
  uint8_t kind = 0;        // wire MessageType, or the generator's OpKind
  int16_t server = -1;     // range-server index for per-server layers
  uint32_t depth = 0;      // calls already in flight on the channel
  uint64_t bytes_in = 0;   // handled request frame bytes
  uint64_t bytes_out = 0;  // response frame bytes, or Range arena bytes

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  static SpanLog& Get() {
    static SpanLog* log = new SpanLog();
    return *log;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Record(const Span& span) { Buffer()->push_back(span); }

  /// Every recorded span; call only while no thread records.
  std::vector<Span> Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (auto& buf : buffers_) {
      all.insert(all.end(), buf->begin(), buf->end());
      buf->clear();
    }
    return all;
  }

 private:
  SpanLog() = default;

  std::vector<Span>* Buffer() {
    thread_local std::vector<Span>* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buf = buffers_.back().get();
      buf->reserve(4096);
    }
    return buf;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // never shrinks
};

/// Times one call: opens on construction (when recording is enabled),
/// becomes the parent of spans opened on this thread meanwhile, and
/// records itself on destruction.
class SpanScope {
 public:
  SpanScope(Layer layer, uint64_t req, uint8_t kind, int server) {
    SpanLog& log = SpanLog::Get();
    if (!log.enabled()) return;
    active_ = true;
    span_.id = log.NextId();
    span_.parent = Current();
    span_.req = req;
    span_.layer = layer;
    span_.kind = kind;
    span_.server = static_cast<int16_t>(server);
    Current() = span_.id;
    span_.start_ns = NowNs();
  }
  ~SpanScope() {
    if (!active_) return;
    span_.end_ns = NowNs();
    Current() = span_.parent;
    SpanLog::Get().Record(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  Span& span() { return span_; }

 private:
  static uint64_t& Current() {
    thread_local uint64_t current = 0;
    return current;
  }

  bool active_ = false;
  Span span_;
};

}  // namespace fleetbench

#endif  // FLEETBENCH_SPANS_H_
