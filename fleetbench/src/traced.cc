#include "traced.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "serve/protocol.h"
#include "serve/trace.h"
#include "util/random.h"

namespace fleetbench {

using hipads::Status;
using hipads::StatusOr;

namespace {

// Request id and wire type of an encoded frame (0/0 if undecodable).
void FrameIdentity(std::string_view frame, uint64_t* req, uint8_t* kind) {
  hipads::FrameHeader header;
  if (hipads::DecodeFrameHeader(frame.data(), frame.size(), &header).ok()) {
    *req = header.trace_lo;
    *kind = static_cast<uint8_t>(header.type);
  }
}

LayerStat Median(std::vector<double> v) { return {Quantile(v, 0.5), v.size()}; }

LayerStat Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return {v.empty() ? 0.0 : sum / static_cast<double>(v.size()), v.size()};
}

LayerStat Scaled(LayerStat s, double factor) {
  return {s.value * factor, s.samples};
}

// Nanoseconds of [parent.start, parent.end] covered by the union of the
// children's intervals.
double CoveredNs(const Span& parent, std::vector<const Span*> children) {
  std::sort(children.begin(), children.end(),
            [](const Span* a, const Span* b) {
              return a->start_ns < b->start_ns;
            });
  int64_t covered = 0;
  int64_t reach = parent.start_ns;
  for (const Span* c : children) {
    int64_t lo = std::max(c->start_ns, reach);
    int64_t hi = std::min(c->end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return static_cast<double>(covered);
}

double SelfUs(const Span& parent, const std::vector<const Span*>& children) {
  return parent.us() - CoveredNs(parent, children) / 1e3;
}

}  // namespace

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

StatusOr<hipads::AdsArenaView> TimedBackend::Range(uint32_t r) const {
  SpanScope span(Layer::kRange, hipads::CurrentTraceId().lo, 0, server_);
  auto range = inner_->Range(r);
  if (range.ok()) {
    const hipads::AdsArenaView& v = range.value();
    const uint64_t entries = v.num_entries();
    span.span().bytes_out = entries * sizeof(hipads::AdsEntry) +
                            (v.num_nodes() + 1) * sizeof(uint64_t) +
                            (v.has_hip() ? entries * 2 * sizeof(double) : 0);
  }
  return range;
}

StatusOr<hipads::AdsView> TimedBackend::ViewOf(hipads::NodeId v) const {
  SpanScope span(Layer::kViewOf, hipads::CurrentTraceId().lo, 0, server_);
  return inner_->ViewOf(v);
}

StatusOr<hipads::HipView> TimedBackend::HipOf(hipads::NodeId v) const {
  SpanScope span(Layer::kHipOf, hipads::CurrentTraceId().lo, 0, server_);
  return inner_->HipOf(v);
}

std::string TimedHandler::HandleFrame(std::string_view request,
                                      bool* close_connection) {
  uint64_t req = 0;
  uint8_t kind = 0;
  FrameIdentity(request, &req, &kind);
  SpanScope span(layer_, req, kind, server_);
  std::string response = inner_->HandleFrame(request, close_connection);
  span.span().bytes_in = request.size();
  span.span().bytes_out = response.size();
  return response;
}

Status TimedChannel::Call(std::string_view request_frame,
                          hipads::Frame* response,
                          const hipads::Deadline& deadline) {
  uint64_t req = 0;
  uint8_t kind = 0;
  FrameIdentity(request_frame, &req, &kind);
  const uint32_t depth = in_flight_.fetch_add(1);
  Status s;
  {
    SpanScope span(Layer::kRouterCall, req, kind, server_);
    span.span().depth = depth;
    s = inner_->Call(request_frame, response, deadline);
  }
  in_flight_.fetch_sub(1);
  return s;
}

// ---------------------------------------------------------------------------
// InProcessFleet
// ---------------------------------------------------------------------------

Status InProcessFleet::Start(const WorkloadConfig& config,
                             const std::vector<std::string>& inputs,
                             const hipads::FleetManifest& ranges,
                             double* open_ms) {
  manifest_ = ranges;
  double open_total_ms = 0.0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    // The same storage options `hipads_cli serve` uses for this fleet.
    hipads::AdsBackendOptions options;
    if (config.sharded_fleet) {
      options.max_resident = 1;
    } else {
      options.mode = hipads::BackendMode::kMmap;
    }
    auto t0 = std::chrono::steady_clock::now();
    auto opened = hipads::OpenAdsBackend(inputs[i], options);
    open_total_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (!opened.ok()) return opened.status();
    backends_.push_back(std::make_unique<TimedBackend>(
        std::move(opened).value(), static_cast<int>(i)));
    hipads::ServerOptions server_options;
    server_options.node_begin = ranges.servers[i].begin;
    server_options.num_threads = 0;
    cores_.push_back(std::make_unique<hipads::AdsServerCore>(
        backends_.back().get(), server_options));
    server_handlers_.push_back(std::make_unique<TimedHandler>(
        cores_.back().get(), Layer::kServer, static_cast<int>(i)));
    hipads::TcpServerOptions tcp;
    tcp.num_workers = 2;
    servers_.push_back(std::make_unique<hipads::TcpServer>(
        server_handlers_.back().get(), tcp));
    Status started = servers_.back()->Start();
    if (!started.ok()) return started;
    manifest_.servers[i].address =
        "127.0.0.1:" + std::to_string(servers_.back()->port());
  }
  *open_ms = open_total_ms / static_cast<double>(inputs.size());

  std::vector<std::string> addresses;
  for (const hipads::FleetEntry& e : manifest_.servers) {
    addresses.push_back(e.address);
  }
  hipads::ChannelFactory factory =
      [addresses](const std::string& address)
      -> StatusOr<std::unique_ptr<hipads::Channel>> {
    auto channel = hipads::TcpChannel::ConnectAddress(address);
    if (!channel.ok()) return channel.status();
    int index = static_cast<int>(
        std::find(addresses.begin(), addresses.end(), address) -
        addresses.begin());
    return std::unique_ptr<hipads::Channel>(
        std::make_unique<TimedChannel>(std::move(channel).value(), index));
  };
  auto connected = hipads::FleetRouter::Connect(manifest_, factory);
  if (!connected.ok()) return connected.status();
  router_.emplace(std::move(connected).value());
  router_core_ = std::make_unique<hipads::RouterCore>(&*router_);
  router_handler_ =
      std::make_unique<TimedHandler>(router_core_.get(), Layer::kRouter, -1);
  hipads::TcpServerOptions tcp;
  tcp.num_workers = config.connections();
  router_server_ =
      std::make_unique<hipads::TcpServer>(router_handler_.get(), tcp);
  Status started = router_server_->Start();
  if (!started.ok()) return started;
  router_address_ = "127.0.0.1:" + std::to_string(router_server_->port());
  return Status::Ok();
}

void InProcessFleet::Stop() {
  if (router_server_) router_server_->Stop();
  for (auto& server : servers_) server->Stop();
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

std::map<std::string, LayerStat> AnalyzeSpans(const std::vector<Span>& spans,
                                              bool primary_sweeps,
                                              double* layer_sum_us) {
  struct Request {
    const Span* load = nullptr;
    const Span* router = nullptr;
    std::vector<const Span*> calls;    // router -> server
    std::vector<const Span*> servers;  // server HandleFrame
  };
  std::unordered_map<uint64_t, Request> requests;
  std::unordered_map<uint64_t, std::vector<const Span*>> backend_calls;
  for (const Span& s : spans) {
    if (s.req == 0) continue;  // untraced traffic (scrapes)
    switch (s.layer) {
      case Layer::kLoadCall: requests[s.req].load = &s; break;
      case Layer::kRouter: requests[s.req].router = &s; break;
      case Layer::kRouterCall: requests[s.req].calls.push_back(&s); break;
      case Layer::kServer: requests[s.req].servers.push_back(&s); break;
      default: backend_calls[s.parent].push_back(&s); break;
    }
  }

  // Per request family (0 = points, 1 = sweeps), in microseconds.
  std::vector<double> client_hop[2], router_self[2], hop[2], server_self[2],
      backend[2];
  std::vector<double> partial_bytes;
  std::vector<double> depth;
  std::vector<double> jaccard_fetches;
  for (auto& [id, r] : requests) {
    if (r.load == nullptr || r.router == nullptr) continue;
    const int family = r.load->kind == static_cast<uint8_t>(OpKind::kSweep);
    client_hop[family].push_back(r.load->us() - r.router->us());
    if (family == 1) {
      // Gather: everything the router does beyond the slowest server.
      double slowest = 0.0;
      for (const Span* c : r.calls) slowest = std::max(slowest, c->us());
      router_self[1].push_back(r.router->us() - slowest);
    } else {
      router_self[0].push_back(SelfUs(*r.router, r.calls));
    }
    if (r.load->kind == static_cast<uint8_t>(OpKind::kJaccard)) {
      // A cross-server pair costs two sketch fetches, a same-server pair
      // none (the owner answers it whole).
      jaccard_fetches.push_back(r.calls.size() == 2 ? 2.0 : 0.0);
    }
    for (const Span* call : r.calls) {
      depth.push_back(call->depth);
      auto server = std::find_if(
          r.servers.begin(), r.servers.end(),
          [call](const Span* s) { return s->server == call->server; });
      if (server == r.servers.end()) continue;
      const Span& s = **server;
      hop[family].push_back(call->us() - s.us());
      const std::vector<const Span*>& inner = backend_calls[s.id];
      server_self[family].push_back(SelfUs(s, inner));
      if (inner.empty()) continue;  // answered from the response cache
      double backend_us = 0.0;
      for (const Span* b : inner) backend_us += b->us();
      backend[family].push_back(backend_us);
      if (family == 1) {
        partial_bytes.push_back(static_cast<double>(s.bytes_out));
      }
    }
  }

  std::map<std::string, LayerStat> m;
  const int p = primary_sweeps ? 1 : 0;
  m["loadgen.client_hop_us"] = Median(client_hop[p]);
  m["serve.client.hop_us"] = Median(hop[p]);
  m["serve.client.queue_depth"] = Mean(depth);
  m["serve.router.point_self_us"] = Median(router_self[0]);
  m["serve.router.gather_ms"] = Scaled(Median(router_self[1]), 1e-3);
  m["serve.router.fetch_per_jaccard"] = Mean(jaccard_fetches);
  m["serve.server.point_self_us"] = Median(server_self[0]);
  m["ads.backend.point_fetch_us"] = Median(backend[0]);
  m["ads.sweep.server_self_ms"] = Scaled(Median(server_self[1]), 1e-3);
  m["ads.backend.range_ms"] = Scaled(Median(backend[1]), 1e-3);
  m["ads.sweep.partial_bytes"] = Mean(partial_bytes);
  *layer_sum_us = Median(client_hop[p]).value + Median(router_self[p]).value +
                  Median(hop[p]).value + Median(server_self[p]).value +
                  Median(backend[p]).value;
  return m;
}

double FrameNsPerKb(const std::vector<Span>& spans, uint64_t seed) {
  std::vector<uint64_t> sizes;
  for (const Span& s : spans) {
    if (s.req == 0) continue;
    if (s.layer == Layer::kServer || s.layer == Layer::kRouter) {
      sizes.push_back(s.bytes_in);
      sizes.push_back(s.bytes_out);
    }
  }
  if (sizes.empty()) return 0.0;
  constexpr size_t kSamples = 512;
  constexpr uint64_t kMaxBytes = 64ull << 20;
  hipads::Rng rng(seed ^ 0xf4a3e5ull);
  std::vector<uint64_t> sample;
  for (size_t i = 0; i < kSamples; ++i) {
    sample.push_back(sizes[rng.NextBounded(sizes.size())]);
  }
  const uint64_t largest = *std::max_element(sample.begin(), sample.end());
  std::string payload(largest, '\0');
  for (char& c : payload) c = static_cast<char>(rng.Next());
  const size_t header = hipads::kFrameHeaderBytes + hipads::kFrameExtBytes;
  double ns = 0.0;
  uint64_t bytes = 0;
  for (uint64_t size : sample) {
    if (bytes > kMaxBytes) break;
    std::string_view body(payload.data(), size > header ? size - header : 0);
    auto t0 = std::chrono::steady_clock::now();
    std::string frame =
        hipads::EncodeFrame(hipads::MessageType::kPointResponse, body);
    auto decoded = hipads::DecodeFrame(frame);
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
    if (!decoded.ok()) return 0.0;
    bytes += frame.size();
  }
  return bytes == 0 ? 0.0 : ns / (static_cast<double>(bytes) / 1024.0);
}

}  // namespace fleetbench
