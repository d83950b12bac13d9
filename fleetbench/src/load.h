// The seeded load generator: request mixes, closed- and open-loop drivers
// over TCP connections to the fleet's router, and the output checks that
// compare served answers with in-process reference computations.

#ifndef FLEETBENCH_LOAD_H_
#define FLEETBENCH_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "graph/graph.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "util/random.h"
#include "util/status.h"

namespace fleetbench {

using hipads::Status;
using hipads::StatusOr;

/// What one generated request asks for (the wire kind alone does not
/// distinguish node stats at d = inf from |N_d|).
enum class OpKind : uint8_t { kNodeStats, kNbhd, kLookup, kJaccard, kSweep };

/// A workload's load shape. Every connection is one caller thread; the
/// router runs exactly one worker per connection and each range server
/// holds only the router's connection plus one spare.
struct WorkloadConfig {
  std::string name;
  bool sharded_fleet = false;    // servers read 4-way shard directories
  uint32_t point_conns = 0;
  uint32_t sweep_conns = 0;
  bool open_loop = false;
  double point_rate = 0.0;       // open loop: points/s over all point conns
  double sweep_interval_s = 0.0; // open loop: one sweep per interval
  bool zipf_keys = false;        // else uniform keys

  uint32_t connections() const { return point_conns + sweep_conns; }
};

/// Looks up a workload by name; false if unknown.
bool WorkloadByName(const std::string& name, WorkloadConfig* out);

/// Draws requests. Immutable after construction; callers own the Rng.
class RequestGen {
 public:
  RequestGen(uint32_t num_nodes, uint64_t seed, bool zipf_keys);

  hipads::PointRequestMsg NextPoint(hipads::Rng& rng, OpKind* kind) const;
  /// A fused sweep whose Q_g and quantile parameters are fresh doubles,
  /// so no two sweeps repeat (the servers' sweep cache cannot answer).
  hipads::SweepRequestMsg NextSweep(hipads::Rng& rng) const;

 private:
  uint32_t NextNode(hipads::Rng& rng) const;

  uint32_t num_nodes_;
  bool zipf_;
  std::vector<uint32_t> perm_;  // Zipf rank -> node
  std::vector<double> cdf_;     // Zipf(s = 1.1) over ranks
};

struct PointSample {
  hipads::PointRequestMsg request;
  std::vector<double> values;
};

struct SweepSample {
  hipads::SweepRequestMsg request;
  hipads::SweepResponseMsg response;
};

/// What one measured phase produced.
struct PhaseStats {
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> point_us;  // from send (closed) or due time (open)
  std::vector<double> sweep_ms;
  std::vector<double> late_ms;   // open loop: oversleep of unblocked sends
  std::vector<double> queue_us;  // open loop: due time to send
  // Downstream requests the router must send for this phase's traffic.
  std::vector<uint64_t> points_per_server;
  uint64_t sweeps_sent = 0;
  std::vector<PointSample> point_samples;
  std::vector<SweepSample> sweep_samples;
  std::vector<std::string> errors;  // first few failure messages
};

struct PhaseOptions {
  double seconds = 1.0;
  uint64_t stream = 0;      // Rng stream (distinct per phase)
  bool keep_samples = false;
  // Nonzero: every request carries trace id (trace_tag, request id) and
  // records a load-call span.
  uint64_t trace_tag = 0;
};

/// The load generator's connections to one router plus the phase driver.
class LoadGenerator {
 public:
  LoadGenerator(const WorkloadConfig& config, const RequestGen& gen,
                const hipads::FleetManifest& fleet, std::string router,
                uint64_t seed);

  Status Connect();
  PhaseStats Run(const PhaseOptions& options);
  /// Fleet-wide metrics scrape over connection 0 (no extra connection:
  /// the router has exactly one worker per generator connection).
  StatusOr<hipads::StatsResponseMsg> Scrape();
  /// One point request over connection 0.
  StatusOr<hipads::PointResponseMsg> Point(const hipads::PointRequestMsg& r);

 private:
  void PointLoop(size_t conn, const PhaseOptions& options, double t_end,
                 PhaseStats* out);
  void SweepLoop(size_t conn, const PhaseOptions& options, double t_end,
                 PhaseStats* out);
  size_t OwnerOf(uint64_t node) const;
  Status Reconnect(size_t conn);

  WorkloadConfig config_;
  const RequestGen& gen_;
  hipads::FleetManifest fleet_;
  std::string router_;
  uint64_t seed_;
  std::vector<std::unique_ptr<hipads::Channel>> conns_;
};

/// The answer the serving stack must give for `request`, computed
/// in-process from the whole sketch file with the library's estimators.
StatusOr<std::vector<double>> ReferencePoint(
    const hipads::AdsBackend& ref, const hipads::PointRequestMsg& request);

/// Bitwise comparison of sampled answers against the in-process
/// reference; returns the number of mismatches (first one in *why).
uint64_t VerifyPoints(const hipads::AdsBackend& ref,
                      const std::vector<PointSample>& samples,
                      std::string* why);
/// Every sweep's partials against an in-process RunSweep of the same
/// specs over the whole sketch file; returns the number of mismatches.
uint64_t VerifySweeps(const hipads::AdsBackend& ref,
                      const std::vector<SweepSample>& samples,
                      std::string* why);

/// NRMSE of served |N_d(v)| against exact BFS counts over `pairs`
/// seeded (node, d) pairs, d in 1..4. Counts its requests in *attempted
/// and failures in *failed.
double NeighborhoodNrmse(LoadGenerator& load, const hipads::Graph& graph,
                         uint64_t seed, uint32_t pairs, uint64_t* attempted,
                         uint64_t* failed);

/// Linear-interpolated quantile of `values` (sorted in place); 0 if empty.
double Quantile(std::vector<double>& values, double q);

}  // namespace fleetbench

#endif  // FLEETBENCH_LOAD_H_
