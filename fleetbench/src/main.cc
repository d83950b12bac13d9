// fleetbench — end-to-end and per-layer benchmark of a hipads serving
// fleet.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              --work-dir DIR
//
// From the seed it builds the fixture with hipads_cli (a 20000-node
// Barabasi-Albert graph, HIP-resident k=16 sketches, split in two halves),
// starts two `serve` range servers and one `route` on ephemeral loopback
// ports, and drives the workload's request mix from this process. Every
// answer sample and every sweep is checked bitwise against in-process
// reference computations, and the servers' scraped request counters must
// equal what the generator sent.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: per-step setup times and scrape deltas from an untraced phase
// on the CLI fleet, then a builder split timed in-process, then the same
// fleet hosted in this process behind timing decorators, run once
// untraced and once traced.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/flat_ads.h"
#include "ads/hip.h"
#include "ads/serialize.h"
#include "ads/shard.h"
#include "fleet.h"
#include "graph/io.h"
#include "load.h"
#include "serve/client.h"
#include "sketch/cardinality.h"
#include "spans.h"
#include "traced.h"
#include "util/hash.h"

namespace fleetbench {
namespace {

namespace fs = std::filesystem;
using hipads::FleetManifest;
using hipads::StatsResponseMsg;

constexpr uint32_t kNodes = 20000;
constexpr uint32_t kK = 16;
constexpr uint32_t kBuildThreads = 4;
constexpr int kInstances = 3;  // fixtures per end-to-end run
constexpr double kWarmupSeconds = 1.0;
constexpr uint32_t kNrmsePairs = 2000;
constexpr uint64_t kTraceTag = 0xfb5eedull;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seed of a run's i-th fixture; instance 0 uses the run's own seed.
uint64_t InstanceSeed(uint64_t seed, int i) {
  return i == 0 ? seed : hipads::SplitMix64(seed + static_cast<uint64_t>(i));
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

// Where one run keeps its fixture and logs.
struct Paths {
  std::string dir;
  std::string graph() const { return dir + "/g.txt"; }
  std::string sketch() const { return dir + "/s.ads2"; }
  std::string halves() const { return dir + "/halves"; }
  std::string quarters(size_t i) const {
    return dir + "/q" + std::to_string(i);
  }
  std::string fleet() const { return dir + "/fleet.txt"; }
  std::string log(const std::string& name) const {
    return dir + "/" + name + ".log";
  }
};

struct SetupTimes {
  double generate_s = 0.0;
  double sketch_s = 0.0;
  double shard_s = 0.0;
  double ready_s = 0.0;
  double total_s = 0.0;
};

// Prints every metric as a readable line; AddJson metrics also go into
// the result object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    std::printf("metric %-34s %14.6f %-6s (n=%zu)\n", name.c_str(), value,
                unit.c_str(), samples);
  }
  void AddJson(const std::string& name, double value, const std::string& unit,
               size_t samples) {
    Add(name, value, unit, samples);
    char digits[64];
    std::snprintf(digits, sizeof(digits), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    json_ += (json_.empty() ? "\"" : ", \"") + name + "\": {\"value\": " +
             digits + ", \"unit\": \"" + unit + "\"}";
  }
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
           json_ + "}}";
  }

 private:
  std::string json_;
};

// Failure bookkeeping across phases: any mismatch makes the run incorrect.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Absorb(const PhaseStats& s) {
    attempted += s.attempted;
    failed += s.failed;
    for (const std::string& e : s.errors) problems.push_back("request: " + e);
  }
  void Mismatch(uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed += n;  // a wrong answer counts as a failed op
    problems.push_back(why + " (" + std::to_string(n) + "x)");
  }
  bool correct() const { return problems.empty() && failed == 0; }
};

// ---------------------------------------------------------------------------
// Fixture and CLI fleet
// ---------------------------------------------------------------------------

Status WaitForInfo(const std::string& address, const hipads::FleetEntry& want) {
  auto channel = hipads::TcpChannel::ConnectAddress(address);
  if (!channel.ok()) return channel.status();
  auto info =
      hipads::AdsClient(channel.value().get(), hipads::Deadline::AfterMs(5000))
          .Info();
  if (!info.ok()) return info.status();
  if (info.value().node_begin != want.begin ||
      info.value().node_end != want.end) {
    return Status::Corruption(address + " serves the wrong range");
  }
  return Status::Ok();
}

// Seed -> graph -> sketches -> halves (-> quarter shards) -> fleet up and
// answering Info. The server inputs are returned in *inputs.
Status SetUp(uint64_t instance_seed, const WorkloadConfig& config,
             const Paths& paths, CliFleet* fleet, SetupTimes* times,
             std::vector<std::string>* inputs) {
  const std::string cli = HIPADS_CLI_PATH;
  const std::string seed = std::to_string(instance_seed);
  const std::string log = paths.log("setup");
  auto t0 = Clock::now();
  Status s = RunStep({cli, "generate", "--model", "ba", "--nodes",
                      std::to_string(kNodes), "--seed", seed, "--out",
                      paths.graph()},
                     log, 60);
  if (!s.ok()) return s;
  times->generate_s = Since(t0);

  auto t1 = Clock::now();
  s = RunStep({cli, "sketch", "--graph", paths.graph(), "--k",
               std::to_string(kK), "--format", "binary", "--hip", "1",
               "--threads", std::to_string(kBuildThreads), "--seed", seed,
               "--out", paths.sketch()},
              log, 120);
  if (!s.ok()) return s;
  times->sketch_s = Since(t1);

  auto t2 = Clock::now();
  fs::remove_all(paths.halves());
  s = RunStep({cli, "shard", "--in", paths.sketch(), "--shards", "2",
               "--out-dir", paths.halves()},
              log, 60);
  if (!s.ok()) return s;
  // The halves' global ranges and files, from the shard manifest.
  auto halves = hipads::ShardedAdsSet::Open(paths.halves());
  if (!halves.ok()) return halves.status();
  fleet->manifest = FleetManifest();
  fleet->manifest.num_nodes = kNodes;
  inputs->clear();
  for (size_t i = 0; i < halves.value().shards().size(); ++i) {
    const hipads::ShardInfo& shard = halves.value().shards()[i];
    hipads::FleetEntry entry;
    entry.begin = shard.begin;
    entry.end = shard.end;
    fleet->manifest.servers.push_back(entry);
    const std::string file = paths.halves() + "/" + shard.file;
    if (config.sharded_fleet) {
      fs::remove_all(paths.quarters(i));
      s = RunStep({cli, "shard", "--in", file, "--shards", "4", "--out-dir",
                   paths.quarters(i)},
                  log, 60);
      if (!s.ok()) return s;
      inputs->push_back(paths.quarters(i));
    } else {
      inputs->push_back(file);
    }
  }
  times->shard_s = Since(t2);

  auto t3 = Clock::now();
  for (size_t i = 0; i < inputs->size(); ++i) {
    hipads::FleetEntry& entry = fleet->manifest.servers[i];
    std::vector<std::string> argv = {
        cli, "serve", "--sketches", (*inputs)[i], "--node-begin",
        std::to_string(entry.begin), "--port", "0", "--workers", "2"};
    if (config.sharded_fleet) {
      argv.insert(argv.end(), {"--resident", "1"});
    } else {
      argv.insert(argv.end(), {"--backend", "mmap"});
    }
    auto child = SpawnChild(argv, paths.log("server" + std::to_string(i)),
                            /*pipe_stdout=*/true);
    if (!child.ok()) return child.status();
    fleet->servers.push_back(child.value());
    auto port = ReadListeningPort(child.value(), 60);
    if (!port.ok()) return port.status();
    entry.address = "127.0.0.1:" + std::to_string(port.value());
  }
  {
    std::ofstream out(paths.fleet());
    out << hipads::SerializeFleetManifest(fleet->manifest);
    if (!out) return Status::IOError("cannot write " + paths.fleet());
  }
  auto router = SpawnChild({cli, "route", "--fleet", paths.fleet(), "--port",
                            "0", "--workers",
                            std::to_string(config.connections())},
                           paths.log("router"), /*pipe_stdout=*/true);
  if (!router.ok()) return router.status();
  fleet->router = router.value();
  auto port = ReadListeningPort(fleet->router, 60);
  if (!port.ok()) return port.status();
  fleet->router_address = "127.0.0.1:" + std::to_string(port.value());
  for (const hipads::FleetEntry& e : fleet->manifest.servers) {
    s = WaitForInfo(e.address, e);
    if (!s.ok()) return s;
  }
  hipads::FleetEntry whole;
  whole.end = kNodes;
  s = WaitForInfo(fleet->router_address, whole);
  if (!s.ok()) return s;
  times->ready_s = Since(t3);
  times->total_s = Since(t0);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Scrapes and request accounting
// ---------------------------------------------------------------------------

const hipads::MetricsSnapshot* SnapshotOf(const StatsResponseMsg& r,
                                          const std::string& label) {
  for (const auto& snap : r.snapshots) {
    if (snap.label == label) return &snap.metrics;
  }
  return nullptr;
}

uint64_t CounterOf(const hipads::MetricsSnapshot* m, const std::string& name) {
  if (m == nullptr) return 0;
  for (const auto& c : m->counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Counter deltas between two fleet scrapes, per label.
struct ScrapeDelta {
  const StatsResponseMsg& before;
  const StatsResponseMsg& after;

  double Of(const std::string& label, const std::string& name) const {
    return static_cast<double>(CounterOf(SnapshotOf(after, label), name)) -
           static_cast<double>(CounterOf(SnapshotOf(before, label), name));
  }
  double Servers(const FleetManifest& fleet, const std::string& name) const {
    double sum = 0.0;
    for (const auto& e : fleet.servers) sum += Of(e.address, name);
    return sum;
  }
};

// Per-server deltas must equal what the generator sent under the
// manifest's routing; returns the number of differing counters.
uint64_t CheckAccounting(const ScrapeDelta& d, const FleetManifest& fleet,
                         const WorkloadConfig& config, const PhaseStats& stats,
                         std::string* why) {
  uint64_t bad = 0;
  auto expect = [&](const std::string& label, const std::string& name,
                    double got, double want) {
    if (got == want) return;
    if (bad++ == 0) {
      *why = label + " " + name + ": scraped " + std::to_string(got) +
             ", generator sent " + std::to_string(want);
    }
  };
  for (size_t i = 0; i < fleet.servers.size(); ++i) {
    const std::string& a = fleet.servers[i].address;
    const double points = static_cast<double>(stats.points_per_server[i]);
    const double sweeps = static_cast<double>(stats.sweeps_sent);
    expect(a, "serve.requests.point", d.Of(a, "serve.requests.point"), points);
    expect(a, "serve.requests.sweep", d.Of(a, "serve.requests.sweep"), sweeps);
    expect(a, "serve.requests.point_batch",
           d.Of(a, "serve.requests.point_batch"), 0);
    expect(a, "serve.requests.info", d.Of(a, "serve.requests.info"), 0);
    expect(a, "serve.requests.other", d.Of(a, "serve.requests.other"), 0);
    expect(a, "serve.requests.stats", d.Of(a, "serve.requests.stats"), 1);
    auto lookups = [&](const std::string& cache) {
      return d.Of(a, cache + ".hits") + d.Of(a, cache + ".misses");
    };
    expect(a, "serve.cache.point lookups", lookups("serve.cache.point"),
           points);
    expect(a, "serve.cache.sweep lookups", lookups("serve.cache.sweep"),
           sweeps);
    // Residency 1 over four shards: every sweep loads each shard once.
    expect(a, "ads.shard.loads", d.Of(a, "ads.shard.loads"),
           config.sharded_fleet ? 4 * sweeps : 0);
  }
  expect("router", "router.retries", d.Of("router", "router.retries"), 0);
  return bad;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// A run that cannot finish prints why and no result.
int Fail(const std::string& what, const Status& s) {
  std::fprintf(stderr, "fleetbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Measured {
  PhaseStats stats;
  StatsResponseMsg before;
  StatsResponseMsg after;
  double server_cpu_ms = 0.0;
  double router_cpu_ms = 0.0;
  double loadgen_cpu_ms = 0.0;
};

// Warm-up, scrape, measured phase, scrape; output checks and accounting
// go into *outcome.
Status MeasureCliFleet(const WorkloadConfig& config,
                       CliFleet& fleet, LoadGenerator& load,
                       const hipads::AdsBackend& ref, double seconds,
                       Outcome* outcome, Measured* m) {
  PhaseStats warm = load.Run({kWarmupSeconds, 1, false, 0});
  outcome->Absorb(warm);
  auto before = load.Scrape();
  if (!before.ok()) return before.status();
  m->before = std::move(before).value();
  std::vector<double> cpu0;
  for (pid_t pid : fleet.Pids()) cpu0.push_back(CpuMs(pid));
  const double self0 = CpuMs(0);
  m->stats = load.Run({seconds, 2, true, 0});
  const double self1 = CpuMs(0);
  const std::vector<pid_t> pids = fleet.Pids();
  for (size_t i = 0; i < pids.size(); ++i) {
    double used = CpuMs(pids[i]) - cpu0[i];
    (i + 1 == pids.size() ? m->router_cpu_ms : m->server_cpu_ms) += used;
  }
  m->loadgen_cpu_ms = self1 - self0;
  auto after = load.Scrape();
  if (!after.ok()) return after.status();
  m->after = std::move(after).value();
  outcome->Absorb(m->stats);

  std::string why;
  uint64_t bad = CheckAccounting({m->before, m->after}, fleet.manifest, config,
                                 m->stats, &why);
  if (bad > 0) outcome->Mismatch(bad, "request accounting: " + why);
  auto t0 = Clock::now();
  uint64_t wrong = VerifyPoints(ref, m->stats.point_samples, &why);
  outcome->Mismatch(wrong, why);
  wrong = VerifySweeps(ref, m->stats.sweep_samples, &why);
  outcome->Mismatch(wrong, why);
  std::printf("checked %zu point answers and %zu sweeps bitwise in %.2f s; "
              "accounting %s\n",
              m->stats.point_samples.size(), m->stats.sweep_samples.size(),
              Since(t0), bad == 0 ? "exact" : "MISMATCH");
  return Status::Ok();
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

// NRMSE of served |N_d| against exact counts (NeighborhoodNrmse) on the
// fleet behind `load`; its probes count as requests of the run.
double MeasureNrmse(LoadGenerator& load, const Paths& paths, uint64_t seed,
                    Outcome* outcome, uint64_t* probes) {
  auto graph = hipads::ReadEdgeListFile(paths.graph(), /*undirected=*/true);
  if (!graph.ok()) {
    outcome->problems.push_back("graph: " + graph.status().ToString());
    return 0.0;
  }
  uint64_t failed = 0;
  double nrmse = NeighborhoodNrmse(load, graph.value(), seed, kNrmsePairs,
                                   probes, &failed);
  outcome->attempted += *probes;
  outcome->failed += failed;
  if (failed > 0) outcome->problems.push_back("nrmse probes failed");
  return nrmse;
}

// One fixture built from `seed`, served by a CLI fleet and measured for
// `seconds` (MeasureCliFleet). Members are destroyed in reverse order:
// the generator's connections close before the fleet stops.
struct Instance {
  CliFleet fleet;
  std::vector<std::string> inputs;
  SetupTimes setup;
  std::unique_ptr<hipads::AdsBackend> ref;  // the whole sketch file
  std::unique_ptr<RequestGen> gen;
  std::unique_ptr<LoadGenerator> load;
  Measured measured;
};

Status RunInstance(uint64_t seed, const WorkloadConfig& config,
                   const Paths& paths, double seconds, Outcome* outcome,
                   Instance* in) {
  Status s = SetUp(seed, config, paths, &in->fleet, &in->setup, &in->inputs);
  if (!s.ok()) return s;
  hipads::AdsBackendOptions ref_options;
  ref_options.mode = hipads::BackendMode::kMmap;
  auto ref = hipads::OpenAdsBackend(paths.sketch(), ref_options);
  if (!ref.ok()) return ref.status();
  in->ref = std::move(ref).value();
  in->gen = std::make_unique<RequestGen>(kNodes, seed, config.zipf_keys);
  in->load = std::make_unique<LoadGenerator>(
      config, *in->gen, in->fleet.manifest, in->fleet.router_address, seed);
  s = in->load->Connect();
  if (!s.ok()) return s;
  return MeasureCliFleet(config, in->fleet, *in->load, *in->ref, seconds,
                         outcome, &in->measured);
}

int RunEndToEnd(const Options& opt, const WorkloadConfig& config,
                const Paths& paths) {
  Report report;
  Outcome outcome;
  // Costs vary with the graph and rank draw, so one run measures several
  // instances (each a fresh fixture and fleet) and reports the median of
  // their figures.
  const bool sweeps_primary = config.point_conns == 0;
  std::map<std::string, std::vector<double>> per_instance;
  size_t points = 0;
  size_t sweeps = 0;
  double seconds = 0.0;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  double nrmse = 0.0;
  uint64_t nrmse_probes = 0;
  for (int i = 0; i < kInstances; ++i) {
    const uint64_t seed = InstanceSeed(opt.seed, i);
    Instance in;
    Status s = RunInstance(seed, config, paths, opt.seconds / kInstances,
                           &outcome, &in);
    if (!s.ok()) return Fail("instance " + std::to_string(i), s);
    setup_s.push_back(in.setup.total_s);
    if (i == 0) {
      nrmse = MeasureNrmse(*in.load, paths, seed, &outcome, &nrmse_probes);
    }
    double rss = 0.0;
    for (pid_t pid : in.fleet.Pids()) rss += PeakRssMb(pid);
    rss_mb.push_back(rss);
    PhaseStats& st = in.measured.stats;
    points += st.point_us.size();
    sweeps += st.sweep_ms.size();
    seconds += st.seconds;
    auto& f = per_instance;
    f["point_rps"].push_back(st.point_us.size() / st.seconds);
    f["point_p50_us"].push_back(Quantile(st.point_us, 0.5));
    f["point_p99_us"].push_back(Quantile(st.point_us, 0.99));
    f["sweep_per_s"].push_back(st.sweep_ms.size() / st.seconds);
    f["sweep_p50_ms"].push_back(Quantile(st.sweep_ms, 0.5));
    f["sweep_p90_ms"].push_back(Quantile(st.sweep_ms, 0.9));
  }
  auto median_of = [&](const std::string& name) {
    return Median(per_instance[name]);
  };
  const double point_rps = median_of("point_rps");
  const double point_p50 = median_of("point_p50_us");
  const double point_p99 = median_of("point_p99_us");
  const double sweep_per_s = median_of("sweep_per_s");
  const double sweep_p50 = median_of("sweep_p50_ms");
  const double sweep_p90 = median_of("sweep_p90_ms");

  std::printf("workload %s seed %llu: %d instances, %.1f s measured, %s\n",
              config.name.c_str(), static_cast<unsigned long long>(opt.seed),
              kInstances, seconds,
              config.open_loop ? "open loop" : "closed loop");
  report.AddJson("setup_s", Median(setup_s), "s", setup_s.size());
  if (sweeps_primary) {
    report.AddJson("ops_per_s", sweep_per_s, "1/s", sweeps);
    report.AddJson("op_p50_ms", sweep_p50, "ms", sweeps);
    report.AddJson("op_tail_ms", sweep_p90, "ms", sweeps);
  } else {
    report.AddJson("ops_per_s", point_rps, "1/s", points);
    report.AddJson("op_p50_ms", point_p50 / 1e3, "ms", points);
    report.AddJson("op_tail_ms", point_p99 / 1e3, "ms", points);
  }
  report.AddJson("fleet_rss_mb", Median(rss_mb), "MiB", rss_mb.size());
  // Accuracy is one draw of the seed's rank assignment, shared by every
  // node's sketch, so it varies more from seed to seed than any bound an
  // end-to-end metric may have; the traced run reports it per layer.
  report.Add("nbhd_nrmse", nrmse, "ratio", nrmse_probes);
  report.Add("hip_cv_k16", hipads::HipCv(kK), "ratio", 1);
  // The same figures under their per-kind names.
  if (points > 0) {
    report.Add("point_rps", point_rps, "1/s", points);
    report.Add("point_p50_us", point_p50, "us", points);
    report.Add("point_p99_us", point_p99, "us", points);
  }
  if (sweeps > 0) {
    report.Add("sweep_per_s", sweep_per_s, "1/s", sweeps);
    report.Add("sweep_p50_ms", sweep_p50, "ms", sweeps);
    report.Add("sweep_p90_ms", sweep_p90, "ms", sweeps);
  }
  report.Add("ops_failed_ratio", Ratio(outcome.failed, outcome.attempted),
             "ratio", outcome.attempted);
  for (const std::string& p : outcome.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  std::printf("%s\n", report.Json(outcome.correct(), outcome.attempted,
                                  outcome.failed)
                          .c_str());
  return 0;
}

int RunTraced(const Options& opt, const WorkloadConfig& config,
              const Paths& paths) {
  Report report;
  Outcome outcome;
  const bool sweeps_primary = config.point_conns == 0;
  const double half = opt.seconds / 2;

  // 1. CLI fleet: per-step setup, then an untraced phase for the scrape
  //    deltas and process CPU.
  Instance cli;
  Status s = RunInstance(opt.seed, config, paths, half, &outcome, &cli);
  if (!s.ok()) return Fail("instance", s);
  uint64_t nrmse_probes = 0;
  const double nrmse =
      MeasureNrmse(*cli.load, paths, opt.seed, &outcome, &nrmse_probes);
  cli.load.reset();
  cli.fleet.Stop();
  const SetupTimes& t = cli.setup;
  Measured& m = cli.measured;
  const std::vector<std::string>& inputs = cli.inputs;
  const hipads::AdsBackend& ref = *cli.ref;
  const RequestGen& gen = *cli.gen;
  const FleetManifest& cli_manifest = cli.fleet.manifest;

  // 2. Builder split, in-process, on the same graph file.
  auto graph = hipads::ReadEdgeListFile(paths.graph(), /*undirected=*/true);
  if (!graph.ok()) return Fail("graph", graph.status());
  hipads::AdsBuildStats build_stats;
  auto t0 = Clock::now();
  hipads::AdsSet built = hipads::BuildAdsDpParallel(
      graph.value(), kK, hipads::SketchFlavor::kBottomK,
      hipads::RankAssignment::Uniform(opt.seed), kBuildThreads, &build_stats);
  const double build_s = Since(t0);
  hipads::FlatAdsSet flat = hipads::FlatAdsSet::FromAdsSet(built);
  built = hipads::AdsSet();
  t0 = Clock::now();
  hipads::PrecomputeHipWeights(&flat, kBuildThreads);
  const double precompute_s = Since(t0);
  const std::string rebuilt = paths.dir + "/rebuilt.ads2";
  t0 = Clock::now();
  s = hipads::WriteAdsSetFile(flat, rebuilt, hipads::AdsFileFormat::kBinaryV2);
  const double write_s = Since(t0);
  flat = hipads::FlatAdsSet();
  if (!s.ok()) return Fail("write", s);
  {
    // The in-process build must reproduce the CLI's file byte for byte.
    std::ifstream a(rebuilt, std::ios::binary);
    std::ifstream b(paths.sketch(), std::ios::binary);
    std::istreambuf_iterator<char> ea, eb;
    if (!std::equal(std::istreambuf_iterator<char>(a), ea,
                    std::istreambuf_iterator<char>(b), eb)) {
      outcome.Mismatch(1, "in-process sketch differs from the CLI's file");
    }
  }
  fs::remove(rebuilt);

  // 3. The same fleet in-process behind the decorators: untraced, then
  //    traced.
  InProcessFleet local;
  double open_ms = 0.0;
  s = local.Start(config, inputs, cli_manifest, &open_ms);
  if (!s.ok()) return Fail("in-process fleet", s);
  PhaseStats untraced, traced;
  {
    LoadGenerator load(config, gen, local.manifest(), local.router_address(),
                       opt.seed);
    s = load.Connect();
    if (!s.ok()) return Fail("connect", s);
    outcome.Absorb(load.Run({kWarmupSeconds / 2, 3, false, 0}));
    untraced = load.Run({half / 2, 4, false, 0});
    SpanLog::Get().SetEnabled(true);
    traced = load.Run({half / 2, 5, true, kTraceTag});
    SpanLog::Get().SetEnabled(false);
  }
  local.Stop();
  outcome.Absorb(untraced);
  outcome.Absorb(traced);
  std::string why;
  outcome.Mismatch(VerifyPoints(ref, traced.point_samples, &why), why);
  outcome.Mismatch(VerifySweeps(ref, traced.sweep_samples, &why), why);
  const std::vector<Span> spans = SpanLog::Get().Drain();
  double layer_sum_us = 0.0;
  std::map<std::string, LayerStat> layers =
      AnalyzeSpans(spans, sweeps_primary, &layer_sum_us);
  // An open-loop request first waits for its connection to come free.
  const double queue_us = Quantile(traced.queue_us, 0.5);
  layer_sum_us += queue_us;

  auto primary_p50_us = [&](PhaseStats& p) {
    return sweeps_primary ? Quantile(p.sweep_ms, 0.5) * 1e3
                          : Quantile(p.point_us, 0.5);
  };
  const double untraced_us = primary_p50_us(untraced);
  const double traced_us = primary_p50_us(traced);

  // Scrape deltas of the untraced CLI phase.
  const ScrapeDelta d{m.before, m.after};
  const FleetManifest& f = cli_manifest;
  const double sweeps = static_cast<double>(m.stats.sweep_ms.size());
  const double server_sweeps = sweeps * static_cast<double>(f.servers.size());
  const double requests = d.Servers(f, "serve.requests.point") +
                          d.Servers(f, "serve.requests.sweep");
  double shard_bytes = 0.0;
  if (config.sharded_fleet) {
    for (size_t i = 0; i < f.servers.size(); ++i) {
      for (const auto& entry : fs::directory_iterator(paths.quarters(i))) {
        if (entry.path().extension() == ".ads2") {
          shard_bytes += static_cast<double>(entry.file_size());
        }
      }
    }
    shard_bytes /= 4.0 * static_cast<double>(f.servers.size());
  }
  const double loads = d.Servers(f, "ads.shard.loads");
  const double kops =
      static_cast<double>(sweeps_primary ? m.stats.sweep_ms.size()
                                         : m.stats.point_us.size()) /
      1e3;
  std::printf("workload %s seed %llu (traced run)\n", config.name.c_str(),
              static_cast<unsigned long long>(opt.seed));
  const size_t n_spans = spans.size();
  auto layer = [&](const std::string& name, const std::string& unit) {
    report.AddJson(name, layers[name].value, unit, layers[name].samples);
  };
  const size_t n_cli = m.stats.point_us.size() + m.stats.sweep_ms.size();
  report.AddJson("setup.generate_s", t.generate_s, "s", 1);
  report.AddJson("setup.sketch_s", t.sketch_s, "s", 1);
  report.AddJson("setup.shard_s", t.shard_s, "s", 1);
  report.AddJson("setup.fleet_ready_s", t.ready_s, "s", 1);
  report.AddJson("ads.builders.build_s", build_s, "s", 1);
  report.AddJson("ads.builders.relaxations",
                 static_cast<double>(build_stats.relaxations), "count", 1);
  report.AddJson("ads.hip.precompute_s", precompute_s, "s", 1);
  report.AddJson("ads.serialize.write_s", write_s, "s", 1);
  report.AddJson("ads.backend.open_ms", open_ms, "ms", inputs.size());
  layer("ads.backend.range_ms", "ms");
  report.AddJson("ads.shard.loads_per_sweep", Ratio(loads, server_sweeps),
                 "count", n_cli);
  report.AddJson("ads.shard.prefetch_hit_ratio",
                 Ratio(d.Servers(f, "ads.shard.prefetch_hits"),
                       d.Servers(f, "ads.shard.prefetch_hits") +
                           d.Servers(f, "ads.shard.prefetch_misses")),
                 "ratio", n_cli);
  report.AddJson("ads.shard.bytes_per_sweep",
                 Ratio(loads, server_sweeps) * shard_bytes, "B", n_cli);
  layer("ads.backend.point_fetch_us", "us");
  report.AddJson("serve.point.hip_scan", d.Servers(f, "serve.point.hip_scan"),
                 "count", n_cli);
  layer("ads.sweep.server_self_ms", "ms");
  report.AddJson("ads.sweep.entries_per_sweep",
                 Ratio(d.Servers(f, "ads.sweep.entries"), sweeps), "count",
                 n_cli);
  layer("ads.sweep.partial_bytes", "B");
  report.AddJson("serve.protocol.frame_ns_per_kb",
                 FrameNsPerKb(spans, opt.seed), "ns/KiB", n_spans);
  report.AddJson("serve.bytes_in_per_req",
                 Ratio(d.Servers(f, "serve.bytes_in"), requests), "B", n_cli);
  report.AddJson("serve.bytes_out_per_req",
                 Ratio(d.Servers(f, "serve.bytes_out"), requests), "B", n_cli);
  layer("serve.client.hop_us", "us");
  layer("serve.client.queue_depth", "count");
  layer("serve.server.point_self_us", "us");
  auto hit_ratio = [&](const std::string& cache) {
    double hits = d.Servers(f, cache + ".hits");
    return Ratio(hits, hits + d.Servers(f, cache + ".misses"));
  };
  report.AddJson("serve.cache.point.hit_ratio", hit_ratio("serve.cache.point"),
                 "ratio", n_cli);
  report.AddJson("serve.cache.sweep.hit_ratio", hit_ratio("serve.cache.sweep"),
                 "ratio", n_cli);
  report.AddJson("serve.shed.busy", d.Servers(f, "serve.shed.busy"), "count",
                 n_cli);
  report.AddJson("serve.shed.deadline", d.Servers(f, "serve.shed.deadline"),
                 "count", n_cli);
  layer("serve.router.point_self_us", "us");
  layer("serve.router.fetch_per_jaccard", "count");
  layer("serve.router.gather_ms", "ms");
  report.AddJson("router.retries", d.Of("router", "router.retries"), "count",
                 n_cli);
  report.AddJson("cpu.server_ms_per_kop", Ratio(m.server_cpu_ms, kops), "ms",
                 n_cli);
  report.AddJson("cpu.router_ms_per_kop", Ratio(m.router_cpu_ms, kops), "ms",
                 n_cli);
  report.AddJson("cpu.loadgen_ms_per_kop", Ratio(m.loadgen_cpu_ms, kops), "ms",
                 n_cli);
  layer("loadgen.client_hop_us", "us");
  report.AddJson("loadgen.queue_us", queue_us, "us", traced.queue_us.size());
  report.AddJson("loadgen.late_ms",
                 config.open_loop ? Quantile(m.stats.late_ms, 0.99) : 0.0, "ms",
                 m.stats.late_ms.size());
  report.AddJson("nbhd_nrmse", nrmse, "ratio", nrmse_probes);
  report.Add("hip_cv_k16", hipads::HipCv(kK), "ratio", 1);
  report.AddJson("ledger.residual_pct",
                 Ratio(100.0 * (untraced_us - layer_sum_us), untraced_us), "%",
                 n_spans);
  report.AddJson("ledger.trace_overhead_pct",
                 Ratio(100.0 * (traced_us - untraced_us), untraced_us), "%",
                 n_spans);
  report.Add("ledger.untraced_p50_us", untraced_us, "us",
             untraced.point_us.size() + untraced.sweep_ms.size());
  report.Add("ledger.traced_p50_us", traced_us, "us",
             traced.point_us.size() + traced.sweep_ms.size());
  report.Add("ledger.layer_sum_us", layer_sum_us, "us", n_spans);
  for (const std::string& p : outcome.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  std::printf("%s\n", report.Json(outcome.correct(), outcome.attempted,
                                  outcome.failed)
                          .c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt->trace = value != "0";
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && !opt->work_dir.empty() &&
         opt->seconds > 0;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  Options opt;
  WorkloadConfig config;
  if (!ParseArgs(argc, argv, &opt) || !WorkloadByName(opt.workload, &config)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload point-zipf|sweep-sharded|"
                 "mixed-open --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n");
    return 2;
  }
  InstallCleanupHandlers();
  // The benchmark fixes the router's policy: no implicit coalescing.
  unsetenv("HIPADS_COALESCE_WINDOW_US");
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  Paths paths{opt.work_dir};
  int rc = opt.trace ? RunTraced(opt, config, paths)
                     : RunEndToEnd(opt, config, paths);
  KillAllChildren();
  return rc;
}
