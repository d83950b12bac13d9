#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "ads/ads.h"
#include "ads/estimators.h"
#include "ads/similarity.h"
#include "ads/sweep.h"
#include "graph/exact.h"
#include "serve/trace.h"
#include "spans.h"

namespace fleetbench {

using hipads::AdsClient;
using hipads::Deadline;
using hipads::PointKind;
using hipads::PointRequestMsg;
using hipads::Rng;

namespace {

// Per-request deadlines: a stalled connection (for example one the
// router's workers cannot serve) fails the request instead of hanging.
constexpr uint64_t kPointDeadlineMs = 1000;
constexpr uint64_t kSweepDeadlineMs = 20000;
// One point answer in this many is kept for the output check.
constexpr uint64_t kPointSampleEvery = 8;
constexpr size_t kMaxErrors = 4;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void SleepUntil(Clock::time_point t0, double at_s) {
  std::this_thread::sleep_until(
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(at_s)));
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t conn) {
  return seed * 0x9e3779b97f4a7c15ull ^ (stream << 32) ^ (conn + 1);
}

void NoteError(PhaseStats* out, const Status& s) {
  ++out->failed;
  if (out->errors.size() < kMaxErrors) out->errors.push_back(s.ToString());
}

}  // namespace

bool WorkloadByName(const std::string& name, WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  if (name == "point-zipf") {
    c.point_conns = 4;
    c.zipf_keys = true;
  } else if (name == "sweep-sharded") {
    c.sharded_fleet = true;
    c.sweep_conns = 2;
  } else if (name == "mixed-open") {
    c.point_conns = 3;
    c.sweep_conns = 1;
    c.open_loop = true;
    c.point_rate = 8000.0;
    c.sweep_interval_s = 0.5;
  } else {
    return false;
  }
  *out = c;
  return true;
}

// ---------------------------------------------------------------------------
// RequestGen
// ---------------------------------------------------------------------------

RequestGen::RequestGen(uint32_t num_nodes, uint64_t seed, bool zipf_keys)
    : num_nodes_(num_nodes), zipf_(zipf_keys) {
  if (!zipf_) return;
  Rng rng(seed ^ 0x7a1bf00dull);
  perm_ = rng.NextPermutation(num_nodes);
  cdf_.resize(num_nodes);
  double total = 0.0;
  for (uint32_t r = 0; r < num_nodes; ++r) {
    total += std::pow(static_cast<double>(r + 1), -1.1);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint32_t RequestGen::NextNode(Rng& rng) const {
  if (!zipf_) return static_cast<uint32_t>(rng.NextBounded(num_nodes_));
  size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextUnit()) -
      cdf_.begin());
  return perm_[std::min<size_t>(rank, num_nodes_ - 1)];
}

PointRequestMsg RequestGen::NextPoint(Rng& rng, OpKind* kind) const {
  PointRequestMsg r;
  r.node = NextNode(rng);
  uint64_t x = rng.NextBounded(100);
  if (x < 60) {
    *kind = OpKind::kNodeStats;
    r.kind = PointKind::kNodeStats;
    r.d = std::numeric_limits<double>::infinity();
  } else if (x < 80) {
    *kind = OpKind::kNbhd;
    r.kind = PointKind::kNodeStats;
    r.d = static_cast<double>(1 + rng.NextBounded(4));
  } else if (x < 90) {
    *kind = OpKind::kLookup;
    r.kind = PointKind::kLookup;
    for (int i = 0; i < 4; ++i) r.targets.push_back(NextNode(rng));
  } else {
    *kind = OpKind::kJaccard;
    r.kind = PointKind::kJaccard;
    r.other = NextNode(rng);
    r.d = static_cast<double>(1 + rng.NextBounded(4));
  }
  return r;
}

hipads::SweepRequestMsg RequestGen::NextSweep(Rng& rng) const {
  using hipads::CollectorKind;
  hipads::SweepRequestMsg r;
  r.collectors = {
      {CollectorKind::kDistanceHistogram, 0, 0, 0.0},
      {CollectorKind::kTopK,
       static_cast<uint32_t>(hipads::ScoreKind::kHarmonic), 10, 0.0},
      {CollectorKind::kQg, static_cast<uint32_t>(hipads::QgKind::kExpDecay), 0,
       0.3 + 0.6 * rng.NextUnit()},
      {CollectorKind::kDistanceQuantile, 0, 0, 0.1 + 0.8 * rng.NextUnit()},
  };
  r.num_threads = 2;
  return r;
}

// ---------------------------------------------------------------------------
// LoadGenerator
// ---------------------------------------------------------------------------

LoadGenerator::LoadGenerator(const WorkloadConfig& config,
                             const RequestGen& gen,
                             const hipads::FleetManifest& fleet,
                             std::string router, uint64_t seed)
    : config_(config),
      gen_(gen),
      fleet_(fleet),
      router_(std::move(router)),
      seed_(seed) {}

Status LoadGenerator::Connect() {
  conns_.clear();
  for (uint32_t i = 0; i < config_.connections(); ++i) {
    hipads::TcpChannelOptions options;
    options.connect_timeout_ms = 2000;
    auto channel = hipads::TcpChannel::ConnectAddress(router_, options);
    if (!channel.ok()) return channel.status();
    conns_.push_back(std::move(channel).value());
  }
  return Status::Ok();
}

Status LoadGenerator::Reconnect(size_t conn) {
  // A failed call may leave its response in flight on the socket; a fresh
  // connection keeps later request/response pairs aligned.
  hipads::TcpChannelOptions options;
  options.connect_timeout_ms = 2000;
  auto channel = hipads::TcpChannel::ConnectAddress(router_, options);
  if (!channel.ok()) return channel.status();
  conns_[conn] = std::move(channel).value();
  return Status::Ok();
}

size_t LoadGenerator::OwnerOf(uint64_t node) const {
  for (size_t i = 0; i < fleet_.servers.size(); ++i) {
    if (node < fleet_.servers[i].end) return i;
  }
  return fleet_.servers.size() - 1;
}

StatusOr<hipads::StatsResponseMsg> LoadGenerator::Scrape() {
  return AdsClient(conns_[0].get(), Deadline::AfterMs(5000)).Stats();
}

StatusOr<hipads::PointResponseMsg> LoadGenerator::Point(
    const PointRequestMsg& r) {
  auto response =
      AdsClient(conns_[0].get(), Deadline::AfterMs(kPointDeadlineMs)).Point(r);
  if (!response.ok()) Reconnect(0);
  return response;
}

PhaseStats LoadGenerator::Run(const PhaseOptions& options) {
  std::vector<PhaseStats> parts(conns_.size());
  std::vector<std::thread> threads;
  const double seconds = options.seconds;
  auto t0 = Clock::now();
  for (size_t c = 0; c < conns_.size(); ++c) {
    parts[c].points_per_server.assign(fleet_.servers.size(), 0);
    threads.emplace_back([this, c, &options, seconds, &parts] {
      if (c < config_.point_conns) {
        PointLoop(c, options, seconds, &parts[c]);
      } else {
        SweepLoop(c, options, seconds, &parts[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseStats out;
  out.seconds = Since(t0);
  out.points_per_server.assign(fleet_.servers.size(), 0);
  for (PhaseStats& p : parts) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.sweeps_sent += p.sweeps_sent;
    for (size_t s = 0; s < p.points_per_server.size(); ++s) {
      out.points_per_server[s] += p.points_per_server[s];
    }
    auto append = [](auto& dst, auto& src) {
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    };
    append(out.point_us, p.point_us);
    append(out.sweep_ms, p.sweep_ms);
    append(out.late_ms, p.late_ms);
    append(out.queue_us, p.queue_us);
    append(out.point_samples, p.point_samples);
    append(out.sweep_samples, p.sweep_samples);
    for (std::string& e : p.errors) {
      if (out.errors.size() < kMaxErrors) out.errors.push_back(std::move(e));
    }
  }
  return out;
}

void LoadGenerator::PointLoop(size_t conn, const PhaseOptions& options,
                              double t_end, PhaseStats* out) {
  Rng rng(StreamSeed(seed_, options.stream, conn));
  const double rate =
      config_.open_loop ? config_.point_rate / config_.point_conns : 0.0;
  const auto t0 = Clock::now();
  double due = 0.0;
  uint64_t seq = 0;
  for (;;) {
    double origin = Since(t0);
    if (config_.open_loop) {
      due += rng.NextExponential(rate);
      if (due >= t_end) break;
      if (origin < due) {
        // The connection was free before the request was due: any delay
        // past `due` is the generator's own lateness.
        SleepUntil(t0, due);
        out->late_ms.push_back((Since(t0) - due) * 1e3);
      }
      out->queue_us.push_back((Since(t0) - due) * 1e6);
      origin = due;  // open loop: latency counts from the due time
    } else if (origin >= t_end) {
      break;
    }
    OpKind kind;
    PointRequestMsg request = gen_.NextPoint(rng, &kind);
    size_t owner = OwnerOf(request.node);
    if (kind == OpKind::kJaccard && OwnerOf(request.other) != owner) {
      // Cross-server pair: the router fetches both sketches.
      ++out->points_per_server[owner];
      ++out->points_per_server[OwnerOf(request.other)];
    } else {
      ++out->points_per_server[owner];
    }
    ++out->attempted;
    const uint64_t req_id = (static_cast<uint64_t>(conn + 1) << 40) | ++seq;
    auto response = [&] {
      std::optional<hipads::ScopedTraceContext> trace;
      if (options.trace_tag != 0) trace.emplace(options.trace_tag, req_id);
      SpanScope span(Layer::kLoadCall, options.trace_tag != 0 ? req_id : 0,
                     static_cast<uint8_t>(kind), -1);
      return AdsClient(conns_[conn].get(), Deadline::AfterMs(kPointDeadlineMs))
          .Point(request);
    }();
    const double done = Since(t0);
    if (!response.ok()) {
      NoteError(out, response.status());
      Reconnect(conn);
      continue;
    }
    out->point_us.push_back((done - origin) * 1e6);
    if (options.keep_samples && seq % kPointSampleEvery == 0) {
      out->point_samples.push_back(
          {std::move(request), std::move(response.value().values)});
    }
  }
}

void LoadGenerator::SweepLoop(size_t conn, const PhaseOptions& options,
                              double t_end, PhaseStats* out) {
  Rng rng(StreamSeed(seed_, options.stream, conn));
  const auto t0 = Clock::now();
  uint64_t seq = 0;
  for (uint64_t j = 0;; ++j) {
    double origin = Since(t0);
    if (config_.open_loop) {
      double due = config_.sweep_interval_s * (static_cast<double>(j) + 0.5);
      if (due >= t_end) break;
      if (origin < due) SleepUntil(t0, due);
      origin = due;
    } else if (origin >= t_end) {
      break;
    }
    hipads::SweepRequestMsg request = gen_.NextSweep(rng);
    ++out->attempted;
    ++out->sweeps_sent;
    const uint64_t req_id = (static_cast<uint64_t>(conn + 1) << 40) | ++seq;
    auto response = [&] {
      std::optional<hipads::ScopedTraceContext> trace;
      if (options.trace_tag != 0) trace.emplace(options.trace_tag, req_id);
      SpanScope span(Layer::kLoadCall, options.trace_tag != 0 ? req_id : 0,
                     static_cast<uint8_t>(OpKind::kSweep), -1);
      return AdsClient(conns_[conn].get(), Deadline::AfterMs(kSweepDeadlineMs))
          .Sweep(request);
    }();
    const double done = Since(t0);
    if (!response.ok()) {
      NoteError(out, response.status());
      Reconnect(conn);
      continue;
    }
    out->sweep_ms.push_back((done - origin) * 1e3);
    if (options.keep_samples) {
      out->sweep_samples.push_back(
          {std::move(request), std::move(response).value()});
    }
  }
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

StatusOr<std::vector<double>> ReferencePoint(const hipads::AdsBackend& ref,
                                             const PointRequestMsg& request) {
  if (request.node >= ref.num_nodes()) {
    return Status::NotFound("node out of range");
  }
  const auto v = static_cast<hipads::NodeId>(request.node);
  auto view = ref.ViewOf(v);
  if (!view.ok()) return view.status();
  switch (request.kind) {
    case PointKind::kNodeStats: {
      // A fresh HIP scan, independent of the weights stored in the file.
      hipads::HipEstimator est(view.value(), ref.k(), ref.flavor(),
                               ref.ranks());
      if (std::isinf(request.d)) {
        return std::vector<double>{est.ReachableCount(),
                                   est.HarmonicCentrality(),
                                   est.DistanceSum()};
      }
      return std::vector<double>{est.NeighborhoodCardinality(request.d)};
    }
    case PointKind::kLookup: {
      hipads::AdsNodeIndex index(view.value());
      std::vector<double> values;
      for (uint64_t t : request.targets) {
        values.push_back(index.DistanceOf(static_cast<hipads::NodeId>(t)));
      }
      return values;
    }
    case PointKind::kJaccard: {
      if (request.other >= ref.num_nodes()) {
        return Status::NotFound("node out of range");
      }
      auto other = ref.ViewOf(static_cast<hipads::NodeId>(request.other));
      if (!other.ok()) return other.status();
      const double sup = ref.ranks().sup();
      return std::vector<double>{
          hipads::JaccardSimilarity(view.value(), other.value(), request.d,
                                    ref.k(), sup),
          hipads::UnionCardinality(view.value(), other.value(), request.d,
                                   ref.k(), sup)};
    }
    case PointKind::kFetchSketch:
      break;
  }
  return Status::InvalidArgument("not a generated point kind");
}

uint64_t VerifyPoints(const hipads::AdsBackend& ref,
                      const std::vector<PointSample>& samples,
                      std::string* why) {
  uint64_t mismatches = 0;
  for (const PointSample& s : samples) {
    auto expected = ReferencePoint(ref, s.request);
    bool same = expected.ok() && expected.value().size() == s.values.size() &&
                std::memcmp(expected.value().data(), s.values.data(),
                            s.values.size() * sizeof(double)) == 0;
    if (!same) {
      if (mismatches++ == 0) {
        *why = "point answer for node " + std::to_string(s.request.node) +
               " differs from the in-process reference";
      }
    }
  }
  return mismatches;
}

uint64_t VerifySweeps(const hipads::AdsBackend& ref,
                      const std::vector<SweepSample>& samples,
                      std::string* why) {
  // One fused in-process RunSweep holds a collector for every distinct
  // spec the sampled sweeps used; fused collectors are bitwise identical
  // to standalone ones (the sweep engine's determinism contract), so each
  // served partial is compared with its spec's reference partial.
  const auto n = static_cast<hipads::NodeId>(ref.num_nodes());
  std::map<std::string, size_t> index;  // single-spec key -> plan position
  std::vector<hipads::CollectorSpec> unique;
  for (const SweepSample& s : samples) {
    for (const hipads::CollectorSpec& spec : s.request.collectors) {
      if (index.emplace(hipads::SweepSpecCacheKey({spec}), unique.size())
              .second) {
        unique.push_back(spec);
      }
    }
  }
  hipads::SweepPlan plan;
  auto collectors = hipads::BuildPlanFromSpec(unique, &plan);
  std::vector<std::string> expected(unique.size());
  bool ran = collectors.ok() && hipads::RunSweep(ref, plan, 0).ok();
  for (size_t i = 0; ran && i < unique.size(); ++i) {
    ran = collectors.value()[i]->EncodePartial(0, n, &expected[i]).ok();
  }
  uint64_t mismatches = 0;
  for (const SweepSample& s : samples) {
    const auto& specs = s.request.collectors;
    bool same = ran && s.response.begin == 0 && s.response.end == n &&
                s.response.partials.size() == specs.size();
    for (size_t i = 0; same && i < specs.size(); ++i) {
      same = s.response.partials[i] ==
             expected[index.at(hipads::SweepSpecCacheKey({specs[i]}))];
    }
    if (!same && mismatches++ == 0) {
      *why = "a sweep's collectors differ from the in-process RunSweep";
    }
  }
  return mismatches;
}

double NeighborhoodNrmse(LoadGenerator& load, const hipads::Graph& graph,
                         uint64_t seed, uint32_t pairs, uint64_t* attempted,
                         uint64_t* failed) {
  Rng rng(seed ^ 0x5eedab1eull);
  std::vector<std::pair<uint64_t, double>> probes;
  for (uint32_t i = 0; i < pairs; ++i) {
    uint64_t node = rng.NextBounded(graph.num_nodes());
    probes.push_back({node, static_cast<double>(1 + rng.NextBounded(4))});
  }
  // Node order: a residency-1 sharded server then loads each shard once
  // instead of once per probe.
  std::sort(probes.begin(), probes.end());
  double sum_sq = 0.0;
  uint32_t used = 0;
  for (const auto& [node, d] : probes) {
    PointRequestMsg r;
    r.kind = PointKind::kNodeStats;
    r.node = node;
    r.d = d;
    ++*attempted;
    auto served = load.Point(r);
    if (!served.ok() || served.value().values.size() != 1) {
      ++*failed;
      continue;
    }
    double exact = static_cast<double>(hipads::ExactNeighborhoodSize(
        graph, static_cast<hipads::NodeId>(node), d));
    double rel = (served.value().values[0] - exact) / exact;
    sum_sq += rel * rel;
    ++used;
  }
  return used == 0 ? 0.0 : std::sqrt(sum_sq / used);
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace fleetbench
