// The traced run: the same fleet hosted inside the benchmark process, with
// timing decorators on the public virtual interfaces (AdsBackend,
// FrameHandler, Channel), and the analysis that turns the recorded spans
// into per-layer self times.

#ifndef FLEETBENCH_TRACED_H_
#define FLEETBENCH_TRACED_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "load.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/server.h"
#include "spans.h"

namespace fleetbench {

/// AdsBackend decorator: times Range, ViewOf and HipOf of range server
/// `server`. Requests are identified by the trace id the serving thread
/// has installed.
class TimedBackend : public hipads::AdsBackend {
 public:
  TimedBackend(std::unique_ptr<hipads::AdsBackend> inner, int server)
      : inner_(std::move(inner)), server_(server) {}

  hipads::SketchFlavor flavor() const override { return inner_->flavor(); }
  uint32_t k() const override { return inner_->k(); }
  const hipads::RankAssignment& ranks() const override {
    return inner_->ranks();
  }
  size_t num_nodes() const override { return inner_->num_nodes(); }
  uint64_t TotalEntries() const override { return inner_->TotalEntries(); }
  uint32_t NumRanges() const override { return inner_->NumRanges(); }
  hipads::StatusOr<hipads::AdsArenaView> Range(uint32_t r) const override;
  hipads::StatusOr<hipads::AdsView> ViewOf(hipads::NodeId v) const override;
  hipads::StatusOr<hipads::HipView> HipOf(hipads::NodeId v) const override;
  bool HipResident() const override { return inner_->HipResident(); }
  void Prefetch(uint32_t r) const override { inner_->Prefetch(r); }
  bool ImmutableReads() const override { return inner_->ImmutableReads(); }

 private:
  std::unique_ptr<hipads::AdsBackend> inner_;
  int server_;
};

/// FrameHandler decorator: one span per handled frame (router or server
/// layer), keyed by the frame's trace id.
class TimedHandler : public hipads::FrameHandler {
 public:
  TimedHandler(hipads::FrameHandler* inner, Layer layer, int server)
      : inner_(inner), layer_(layer), server_(server) {}

  std::string HandleFrame(std::string_view request,
                          bool* close_connection) override;

 private:
  hipads::FrameHandler* inner_;
  Layer layer_;
  int server_;
};

/// Channel decorator for the router's downstream connections: one span
/// per Call, with the number of Calls already in flight on the channel.
class TimedChannel : public hipads::Channel {
 public:
  TimedChannel(std::unique_ptr<hipads::Channel> inner, int server)
      : inner_(std::move(inner)), server_(server) {}

  using hipads::Channel::Call;
  hipads::Status Call(std::string_view request_frame, hipads::Frame* response,
                      const hipads::Deadline& deadline) override;

 private:
  std::unique_ptr<hipads::Channel> inner_;
  int server_;
  std::atomic<uint32_t> in_flight_{0};
};

/// Range servers and a router, each an AdsServerCore / RouterCore behind
/// a TcpServer on a loopback ephemeral port, wrapped in the decorators.
class InProcessFleet {
 public:
  InProcessFleet() = default;
  InProcessFleet(const InProcessFleet&) = delete;
  InProcessFleet& operator=(const InProcessFleet&) = delete;
  ~InProcessFleet() { Stop(); }

  /// Opens `inputs[i]` (served at `ranges.servers[i]`'s range) and starts
  /// the fleet. *open_ms gets the mean OpenAdsBackend time per input.
  hipads::Status Start(const WorkloadConfig& config,
                       const std::vector<std::string>& inputs,
                       const hipads::FleetManifest& ranges, double* open_ms);
  /// Stops every TcpServer (joining its workers).
  void Stop();

  const std::string& router_address() const { return router_address_; }
  const hipads::FleetManifest& manifest() const { return manifest_; }

 private:
  std::vector<std::unique_ptr<TimedBackend>> backends_;
  std::vector<std::unique_ptr<hipads::AdsServerCore>> cores_;
  std::vector<std::unique_ptr<TimedHandler>> server_handlers_;
  std::optional<hipads::FleetRouter> router_;
  std::unique_ptr<hipads::RouterCore> router_core_;
  std::unique_ptr<TimedHandler> router_handler_;
  // Declared last: destroyed (stopped) before what their workers use.
  std::vector<std::unique_ptr<hipads::TcpServer>> servers_;
  std::unique_ptr<hipads::TcpServer> router_server_;
  hipads::FleetManifest manifest_;
  std::string router_address_;
};

/// One per-layer figure and the number of samples behind it.
struct LayerStat {
  double value = 0.0;
  size_t samples = 0;
};

/// Per-layer metrics from the spans of one traced phase: self times,
/// hops, queue depth and fan-out. `primary_sweeps` selects which request
/// family the ledger sum follows. *layer_sum_us gets the summed median
/// self times along that family's blocking path.
std::map<std::string, LayerStat> AnalyzeSpans(const std::vector<Span>& spans,
                                              bool primary_sweeps,
                                              double* layer_sum_us);

/// ns per KiB of EncodeFrame + DecodeFrame over a seeded sample of the
/// frame sizes the traced spans saw.
double FrameNsPerKb(const std::vector<Span>& spans, uint64_t seed);

}  // namespace fleetbench

#endif  // FLEETBENCH_TRACED_H_
