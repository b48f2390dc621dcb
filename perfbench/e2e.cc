// perfbench_e2e: one repetition of one end-to-end benchmark workload.
//
// run.py starts one process per repetition, so peak RSS is per
// repetition and a crash or hang costs one counted failure, not the
// sweep.  A repetition
//   1. generates the workload's input from --seed (not timed),
//   2. computes the reference its result is checked against (not timed),
//   3. sets up: coloring, partitioning, InitFromGlobal on every machine,
//      CreateEngine + ScheduleAll                                 setup_s
//   4. solves: Start() on every machine until the stopping rule   solve_s
//   5. checks the result; the snapshot workload also restores its
//      mid-run snapshot into a fresh graph and checks that,
// then prints one JSON line of raw numbers for run.py to aggregate.
//
// Every workload runs 2 simulated machines x 2 engine workers.  Layers
// are measured from outside: the repetition times its own calls into
// them and reads RunResult, CommStats and the machines' metrics
// registries after the solve.
//
// Usage:
//   perfbench_e2e --workload=pagerank_chromatic|pagerank_locking|als_tcp
//                 --seed=N [--trace=1] [--smoke=1] [--corrupt=1]
//                 [--out=DIR]
//
//   --trace=1    record spans (1-in-64 sampled update functions and GAS
//                phases) and write DIR/<workload>-<seed>-<pid>.trace.json
//   --smoke=1    tiny inputs, for the benchmark's own self-test
//   --corrupt=1  perturb one value of every checked result before its
//                check, to show the checks can fail

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster.h"
#include "graphlab/apps/als.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partitioner.h"
#include "graphlab/util/options.h"
#include "graphlab/vertex_program/gas_compiler.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace graphlab;  // NOLINT — benchmark driver brevity

constexpr size_t kMachines = 2;
constexpr size_t kWorkersPerMachine = 2;
constexpr uint64_t kSampleEvery = 64;
constexpr double kDamping = 0.85;

// ----------------------------------------------------------------------
// Output of one repetition
// ----------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok;
  double value;
  double bound;
};

struct Rep {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, double>> ledger;  // worker-seconds
  std::string error;  // non-empty: the operation failed outright
  std::string trace_file;

  void Set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void AddCheck(const std::string& name, bool ok, double value,
                double bound) {
    checks.push_back(Check{name, ok, value, bound});
  }
  bool ok() const {
    if (!error.empty() || checks.empty()) return false;
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintJson(const Rep& rep) {
  std::string out = "{\"ok\":";
  out += rep.ok() ? "true" : "false";
  out += ",\"error\":" + JsonString(rep.error);
  out += ",\"trace_file\":" + JsonString(rep.trace_file);
  out += ",\"checks\":[";
  for (size_t i = 0; i < rep.checks.size(); ++i) {
    const Check& c = rep.checks[i];
    out += (i ? "," : "") + std::string("{\"name\":") + JsonString(c.name) +
           ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"value\":" + JsonNumber(c.value) +
           ",\"bound\":" + JsonNumber(c.bound) + "}";
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    out += (i ? "," : "") + JsonString(rep.metrics[i].first) + ":" +
           JsonNumber(rep.metrics[i].second);
  }
  out += "},\"ledger\":[";
  for (size_t i = 0; i < rep.ledger.size(); ++i) {
    out += (i ? "," : "") + std::string("[") +
           JsonString(rep.ledger[i].first) + "," +
           JsonNumber(rep.ledger[i].second) + "]";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Exact percentile of sampled span durations (ns); 0 with no samples.
double PercentileNs(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const size_t i = std::min(
      ns.size() - 1, static_cast<size_t>(p / 100.0 * static_cast<double>(
                                                         ns.size())));
  return static_cast<double>(ns[i]);
}

std::vector<uint64_t> Durations(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<uint64_t> out;
  for (const Span& s : spans) {
    if (name == s.name && s.end_ns != 0) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

double SumSeconds(const std::vector<uint64_t>& ns) {
  uint64_t total = 0;
  for (uint64_t d : ns) total += d;
  return static_cast<double>(total) * 1e-9;
}

// ----------------------------------------------------------------------
// Sampled timing of the installed update function and its GAS phases
// ----------------------------------------------------------------------

/// The sampled update running on this worker: the update wrapper opens
/// it, the GAS wrapper stamps the phase boundaries into it.
struct UpdateSample {
  bool active = false;
  uint64_t gather_ns = 0;
  uint64_t apply_ns = 0;
  uint64_t apply_end_ns = 0;
  uint64_t scatter_ns = 0;
};
thread_local UpdateSample t_sample;
thread_local uint64_t t_updates_seen = 0;

/// Wraps `fn` so every kSampleEvery-th call on a worker records an
/// apps.update span (child of its machine's engine.start span) and, for
/// compiled GAS programs, gas.gather / gas.apply / gas.scatter children.
template <typename Graph>
UpdateFn<Graph> SampleUpdates(UpdateFn<Graph> fn, SpanLog* spans,
                              const std::vector<int64_t>* solve_span) {
  return [fn = std::move(fn), spans, solve_span](Context<Graph>& ctx) {
    if (t_updates_seen++ % kSampleEvery != 0) {
      fn(ctx);
      return;
    }
    t_sample = UpdateSample{};
    t_sample.active = true;
    const uint64_t start = NowNs();
    fn(ctx);
    const uint64_t end = NowNs();
    t_sample.active = false;
    const rpc::MachineId m = ctx.graph().machine_id();
    const int64_t id = spans->Add("apps.update", (*solve_span)[m], m, start,
                                  end);
    if (t_sample.gather_ns != 0) {
      spans->Add("gas.gather", id, m, t_sample.gather_ns, t_sample.apply_ns);
      spans->Add("gas.apply", id, m, t_sample.apply_ns,
                 t_sample.apply_end_ns);
      spans->Add("gas.scatter", id, m, t_sample.scatter_ns, end);
    }
  };
}

/// PageRankProgram with its phase boundaries stamped into the sampled
/// update.  Gather spans gather_edges() to apply(); scatter spans
/// scatter_edges() to the end of the update.  FlatGather is forwarded so
/// the compiler keeps the columnar fast path it picks for the plain
/// program.
template <typename Graph>
struct TimedPageRankProgram : public IVertexProgram<Graph, double> {
  using context_type = GasContext<Graph, double>;

  apps::PageRankProgram<Graph> inner;

  EdgeDirection gather_edges(const context_type& ctx) const {
    if (t_sample.active) t_sample.gather_ns = NowNs();
    return inner.gather_edges(ctx);
  }
  double gather(const context_type& ctx, LocalEid e) const {
    return inner.gather(ctx, e);
  }
  double FlatGather(const apps::PageRankVertex& neighbor,
                    const apps::PageRankEdge& edge) const {
    return inner.FlatGather(neighbor, edge);
  }
  void apply(context_type& ctx, const double& total) {
    if (t_sample.active) t_sample.apply_ns = NowNs();
    inner.apply(ctx, total);
    if (t_sample.active) t_sample.apply_end_ns = NowNs();
  }
  EdgeDirection scatter_edges(const context_type& ctx) const {
    if (t_sample.active) t_sample.scatter_ns = NowNs();
    return inner.scatter_edges(ctx);
  }
  void scatter(context_type& ctx, LocalEid e) { inner.scatter(ctx, e); }
};

// ----------------------------------------------------------------------
// One distributed job: set-up, solve, optional snapshot restore
// ----------------------------------------------------------------------

template <typename V, typename E>
struct Job {
  using Graph = DistributedGraph<V, E>;

  /// The input; owned vertex data is copied back into it after the solve.
  LocalGraph<V, E>* global = nullptr;
  const GraphStructure* structure = nullptr;
  std::string engine;
  EngineOptions options;
  rpc::ClusterOptions cluster;
  uint64_t seed = 0;
  /// Builds one machine's update function.
  std::function<UpdateFn<Graph>(Graph*)> make_update;

  /// Snapshot workloads: journal directory (empty = no snapshot), how to
  /// mark a fresh vertex as not yet restored, and what a restored vertex
  /// must satisfy.
  std::string snapshot_dir;
  std::function<void(V*)> poison;
  std::function<bool(const V&)> restored;
};

template <typename V, typename E>
void RunJob(const Job<V, E>& job, SpanLog* spans, bool corrupt, Rep* rep) {
  using Graph = DistributedGraph<V, E>;
  const bool snapshot = !job.snapshot_dir.empty();
  if (snapshot) std::filesystem::remove_all(job.snapshot_dir);

  // The cluster (for TCP, the loopback socket mesh) is brought up before
  // the set-up clock starts: set-up is the job's cost, not the fabric's.
  Cluster<Graph> cluster(job.cluster);
  rpc::Runtime& runtime = cluster.runtime();
  const size_t n = kMachines;

  const uint64_t setup_start = NowNs();
  ColorAssignment colors;
  PartitionAssignment atom_of;
  {
    ScopedSpan span(spans, "graph.color", -1, 0);
    colors = GreedyColoring(*job.structure);
  }
  const double color_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
  const uint64_t partition_start = NowNs();
  {
    ScopedSpan span(spans, "graph.partition", -1, 0);
    StreamingPartitionOptions po;
    po.seed = job.seed;
    atom_of = StreamingGreedyPartition(*job.structure,
                                       static_cast<AtomId>(n), po);
  }
  const double partition_s =
      static_cast<double>(NowNs() - partition_start) * 1e-9;
  std::vector<rpc::MachineId> placement(n);
  for (size_t m = 0; m < n; ++m) placement[m] = static_cast<rpc::MachineId>(m);

  std::vector<Graph> graphs(n);
  std::vector<RunResult> results(n);
  std::vector<std::string> errors(n);
  std::vector<double> ingest_s(n, 0.0), restore_s(n, 0.0);
  std::vector<uint64_t> ghosts(n, 0), batches(n, 0), merges(n, 0),
      steals(n, 0), journal_bytes(n, 0), not_restored(n, 0);
  std::vector<metrics::HistogramData> stalls(n);
  std::vector<int64_t> solve_span(n, -1);
  std::vector<Status> restore_status(n, Status::OK());
  double setup_s = 0.0, solve_s = 0.0, cpu_s = 0.0;
  uint64_t solve_start = 0;
  double cpu_start = 0.0;

  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId m = ctx.id;
    Graph& graph = graphs[m];
    {
      ScopedSpan span(spans, "graph.ingest", -1, m);
      const uint64_t t0 = NowNs();
      GL_CHECK_OK(graph.InitFromGlobal(*job.global, atom_of, colors,
                                       placement, m, &ctx.comm()));
      ingest_s[m] = static_cast<double>(NowNs() - t0) * 1e-9;
    }
    cluster.sync(m)->AttachGraph(m, &graph);
    std::unique_ptr<SnapshotManager<V, E>> snapshots;
    if (snapshot) {
      snapshots = std::make_unique<SnapshotManager<V, E>>(ctx, &graph,
                                                          job.snapshot_dir);
    }
    ctx.barrier().Wait(m);

    std::unique_ptr<IEngine<Graph>> engine;
    {
      ScopedSpan span(spans, "engine.create", -1, m);
      DistributedEngineDeps<V, E> deps;
      deps.allreduce = cluster.allreduce(m);
      deps.sync = cluster.sync(m);
      deps.snapshot = snapshots.get();
      auto created = CreateEngine(job.engine, ctx, &graph, job.options, deps);
      if (!created.ok()) {
        // Deterministic from the options, so every machine returns here
        // and no machine is left waiting at a barrier.
        errors[m] = "CreateEngine: " + created.status().ToString();
        return;
      }
      engine = std::move(created.value());
      UpdateFn<Graph> update = job.make_update(&graph);
      if (spans != nullptr) {
        update = SampleUpdates<Graph>(std::move(update), spans, &solve_span);
      }
      engine->SetUpdateFn(std::move(update));
      engine->ScheduleAll();
    }
    ctx.barrier().Wait(m);
    if (m == 0) {
      setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
      cpu_start = ProcessCpuSeconds();
      solve_start = NowNs();
    }
    ctx.barrier().Wait(m);
    {
      ScopedSpan span(spans, "engine.start", -1, m);
      solve_span[m] = span.id();
      results[m] = engine->Start();
    }
    ctx.barrier().Wait(m);
    if (m == 0) {
      solve_s = static_cast<double>(NowNs() - solve_start) * 1e-9;
      cpu_s = ProcessCpuSeconds() - cpu_start;
    }
    if (engine->aborted()) errors[m] = "engine aborted during the solve";
    if (cluster.AnyPeerDown(m)) errors[m] = "peer lost during the solve";

    metrics::MetricsRegistry& reg = ctx.metrics();
    steals[m] = reg.counter("sched.steals")->Value();
    batches[m] = reg.counter("graph.delta_batches_sent")->Value();
    merges[m] = reg.counter("graph.coalesced_merges")->Value();
    stalls[m] = reg.histogram("lock.stall_ns")->Snapshot();
    ghosts[m] = graph.num_local_vertices() - graph.num_owned_vertices();
    if (!snapshot) return;

    // Timed Restore of the mid-run snapshot into a fresh graph; it also
    // proves the snapshot complete.  Re-ingesting re-registers this
    // machine's ghost-push handler onto the fresh graph; the network is
    // quiescent after Start(), so no push is in flight to the old one.
    std::error_code ec;
    journal_bytes[m] = std::filesystem::file_size(
        SnapshotManager<V, E>::JournalPathFor(
            job.snapshot_dir, job.options.snapshot_epoch, m),
        ec);
    ctx.barrier().Wait(m);
    Graph fresh;
    GL_CHECK_OK(fresh.InitFromGlobal(*job.global, atom_of, colors, placement,
                                     m, &ctx.comm()));
    for (LocalVid l : fresh.owned_vertices()) job.poison(&fresh.vertex_data(l));
    SnapshotManager<V, E> restorer(ctx, &fresh, job.snapshot_dir);
    ctx.barrier().Wait(m);  // every fresh graph listens before any pushes
    {
      ScopedSpan span(spans, "snapshot.restore", -1, m);
      const uint64_t t0 = NowNs();
      restore_status[m] = restorer.Restore(job.options.snapshot_epoch);
      restore_s[m] = static_cast<double>(NowNs() - t0) * 1e-9;
    }
    ctx.barrier().Wait(m);
    ctx.comm().WaitQuiescent();
    ctx.barrier().Wait(m);
    if (corrupt && m == 0 && !fresh.owned_vertices().empty()) {
      job.poison(&fresh.vertex_data(fresh.owned_vertices().front()));
    }
    for (LocalVid l : fresh.owned_vertices()) {
      if (!job.restored(fresh.vertex_data(l))) ++not_restored[m];
    }
  });

  for (size_t m = 0; m < n; ++m) {
    if (!errors[m].empty() && rep->error.empty()) rep->error = errors[m];
  }
  if (!rep->error.empty()) return;

  for (Graph& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      job.global->vertex_data(graph.Gvid(l)) = graph.vertex_data(l);
    }
  }

  uint64_t bytes = 0, messages = 0, ghost_total = 0, batch_total = 0,
           merge_total = 0, steal_total = 0, snapshot_bytes = 0;
  double busy = 0.0, ingest_max = 0.0, restore_max = 0.0;
  metrics::HistogramData stall;
  for (size_t m = 0; m < n; ++m) {
    bytes += results[m].bytes_sent;
    messages += results[m].messages_sent;
    busy += results[m].busy_seconds;
    ghost_total += ghosts[m];
    batch_total += batches[m];
    merge_total += merges[m];
    steal_total += steals[m];
    snapshot_bytes += journal_bytes[m];
    ingest_max = std::max(ingest_max, ingest_s[m]);
    restore_max = std::max(restore_max, restore_s[m]);
    stall.Merge(stalls[m]);
  }
  const uint64_t updates = results[0].updates;  // cluster-wide
  const double workers = static_cast<double>(n * kWorkersPerMachine);

  rep->Set("setup_s", setup_s);
  rep->Set("solve_s", solve_s);
  rep->Set("cpu_s", cpu_s);
  rep->Set("net_mb", static_cast<double>(bytes) / 1e6);
  rep->Set("graph.color_s", color_s);
  rep->Set("graph.partition_s", partition_s);
  rep->Set("graph.ingest_s", ingest_max);
  rep->Set("graph.colors", NumColors(colors));
  rep->Set("graph.ghosts", static_cast<double>(ghost_total));
  rep->Set("graph.delta_batches_sent", static_cast<double>(batch_total));
  rep->Set("graph.coalesced_merges", static_cast<double>(merge_total));
  rep->Set("engine.updates", static_cast<double>(updates));
  rep->Set("engine.updates_per_s", static_cast<double>(updates) / solve_s);
  rep->Set("engine.busy_s", busy);
  rep->Set("engine.overhead_frac", 1.0 - busy / (solve_s * workers));
  rep->Set("chromatic.sweeps", static_cast<double>(results[0].sweeps));
  rep->Set("lock.stall_ns.p50", stall.Percentile(50));
  rep->Set("lock.stall_ns.p99", stall.Percentile(99));
  rep->Set("lock.stall_count", static_cast<double>(stall.count));
  rep->Set("sched.steals", static_cast<double>(steal_total));
  rep->Set("rpc.messages", static_cast<double>(messages));
  rep->Set("rpc.bytes_per_msg",
           messages == 0 ? 0.0
                         : static_cast<double>(bytes) /
                               static_cast<double>(messages));
  rep->Set("rpc.bytes_per_update",
           updates == 0 ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(updates));
  rep->Set("snapshot.bytes", static_cast<double>(snapshot_bytes));
  rep->Set("snapshot.restore_s", restore_max);

  if (snapshot) {
    Status st = Status::OK();
    uint64_t missing = 0;
    for (size_t m = 0; m < n; ++m) {
      if (!restore_status[m].ok() && st.ok()) st = restore_status[m];
      missing += not_restored[m];
    }
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot restore failed: %s\n",
                   st.ToString().c_str());
    }
    rep->AddCheck("snapshot.unrestored_vertices", st.ok() && missing == 0,
                  static_cast<double>(missing), 0);
    std::filesystem::remove_all(job.snapshot_dir);
  }

  if (spans == nullptr) return;

  // Sampled phase timings and the worker-seconds ledger.  Solve time is
  // charged at its capacity, solve_s x workers; what the spans, RunResult
  // and the registry cannot attribute (scheduler, barriers, network
  // wait, termination) is its own row, so the rows always sum to the
  // total.
  const std::vector<Span> all = spans->Spans();
  const std::vector<uint64_t> update_ns = Durations(all, "apps.update");
  const std::vector<uint64_t> gather_ns = Durations(all, "gas.gather");
  const std::vector<uint64_t> apply_ns = Durations(all, "gas.apply");
  const std::vector<uint64_t> scatter_ns = Durations(all, "gas.scatter");
  rep->Set("apps.update_ns.p50", PercentileNs(update_ns, 50));
  rep->Set("apps.update_ns.p99", PercentileNs(update_ns, 99));
  rep->Set("gas.gather_ns.p50", PercentileNs(gather_ns, 50));
  rep->Set("gas.apply_ns.p50", PercentileNs(apply_ns, 50));
  rep->Set("gas.scatter_ns.p50", PercentileNs(scatter_ns, 50));

  const double scale = update_ns.empty()
                           ? 0.0
                           : static_cast<double>(updates) /
                                 static_cast<double>(update_ns.size());
  const double update_total = SumSeconds(update_ns) * scale;
  const double gather = SumSeconds(gather_ns) * scale;
  const double apply = SumSeconds(apply_ns) * scale;
  const double scatter = SumSeconds(scatter_ns) * scale;
  const double lock_stall = static_cast<double>(stall.sum) * 1e-9;
  auto& ledger = rep->ledger;
  ledger.emplace_back("setup: graph.color", spans->TotalSeconds("graph.color"));
  ledger.emplace_back("setup: graph.partition",
                      spans->TotalSeconds("graph.partition"));
  ledger.emplace_back("setup: graph.ingest",
                      spans->TotalSeconds("graph.ingest"));
  ledger.emplace_back("setup: engine.create",
                      spans->TotalSeconds("engine.create"));
  if (!gather_ns.empty()) {
    ledger.emplace_back("solve: gas.gather", gather);
    ledger.emplace_back("solve: gas.apply", apply);
    ledger.emplace_back("solve: gas.scatter", scatter);
    ledger.emplace_back("solve: update fn outside GAS phases",
                        update_total - gather - apply - scatter);
  } else {
    ledger.emplace_back("solve: update fn", update_total);
  }
  // RunResult.busy_seconds is the engines' own CPU clock around each task:
  // the update plus the scope commit (ghost flush, lock release) and any
  // snapshot update.  CPU time is a lower bound on the task's wall time,
  // so the tasks took at least max(busy, sampled update wall); the excess
  // over the update is the commit.
  const double tasks = std::max(busy, update_total);
  ledger.emplace_back("solve: task commit (busy - update fn)",
                      tasks - update_total);
  ledger.emplace_back("solve: lock stall", lock_stall);
  ledger.emplace_back("solve: unattributed",
                      solve_s * workers - tasks - lock_stall);
  if (snapshot) {
    ledger.emplace_back("after: snapshot.restore",
                        spans->TotalSeconds("snapshot.restore"));
  }
}

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

rpc::ClusterOptions ClusterShape(rpc::TransportKind transport) {
  rpc::ClusterOptions c;
  c.num_machines = kMachines;
  c.threads_per_machine = kWorkersPerMachine;
  c.transport = transport;
  c.tcp_loopback_cluster = transport == rpc::TransportKind::kTcp;
  return c;
}

EngineOptions EngineShape() {
  EngineOptions eo;
  eo.num_threads = kWorkersPerMachine;
  return eo;
}

/// Dynamic PageRank stops re-signalling a vertex once a neighbour's rank
/// moves by less than the tolerance, so each vertex keeps a residual of
/// up to about the tolerance, which the damping series d^k amplifies into
/// an error of tolerance * d / (1 - d).  The check allows ten times that
/// per-vertex relative error against the Jacobi reference, for fan-in of
/// several sub-tolerance residuals.
double PageRankErrorBound(double tolerance) {
  return 10.0 * tolerance * kDamping / (1.0 - kDamping);
}

void CheckPageRank(const apps::PageRankGraph& g,
                   const std::vector<double>& exact, double tolerance,
                   Rep* rep) {
  double worst = 0.0;
  for (VertexId v = 0; v < exact.size(); ++v) {
    const double rank = g.vertex_data(v).rank;
    const double err = std::fabs(rank - exact[v]) / exact[v];
    worst = std::isfinite(err) ? std::max(worst, err)
                               : std::numeric_limits<double>::infinity();
  }
  const double bound = PageRankErrorBound(tolerance);
  rep->AddCheck("pagerank.max_rel_err", worst <= bound, worst, bound);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;
  std::string out;
};

void RunPageRank(const Args& args, bool locking, SpanLog* spans, Rep* rep) {
  using Graph = DistributedGraph<apps::PageRankVertex, apps::PageRankEdge>;
  constexpr double kTolerance = 1e-4;
  const uint64_t vertices =
      locking ? (args.smoke ? 500 : 1200) : (args.smoke ? 2000 : 50000);
  GraphStructure web =
      gen::PowerLawWeb(vertices, 8, /*alpha=*/0.85, args.seed);
  apps::PageRankGraph global = apps::BuildPageRankGraph(web);
  // An L1 step of 1e-8 leaves the reference ~1e-7 from the fixed point,
  // far inside the check's bound.  The default 1e-12 sits below double
  // rounding of a 50k-vertex rank sum on some inputs and then runs all
  // 10000 iterations.
  const std::vector<double> exact =
      apps::ExactPageRank(global, kDamping, /*max_iters=*/10000,
                          /*tol=*/1e-8);

  Job<apps::PageRankVertex, apps::PageRankEdge> job;
  job.global = &global;
  job.structure = &web;
  job.seed = args.seed;
  job.options = EngineShape();
  job.cluster = ClusterShape(rpc::TransportKind::kInProcess);
  const bool traced = spans != nullptr;
  if (locking) {
    // The classic Alg. 1 update under pipelined distributed locking, with
    // one asynchronous Chandy-Lamport snapshot fired mid-run.
    job.engine = "locking";
    job.make_update = [](Graph*) {
      return apps::MakePageRankUpdateFn<Graph>(kDamping, kTolerance);
    };
    job.options.snapshot_mode = SnapshotMode::kAsynchronous;
    job.options.snapshot_trigger_updates = 8 * vertices;
    job.snapshot_dir = args.out + "/snapshot-" + args.workload + "-" +
                       std::to_string(getpid());
    job.poison = [](apps::PageRankVertex* v) {
      v->rank = std::numeric_limits<double>::quiet_NaN();
    };
    // Any PageRank value is at least 1 - d; a restored rank must be one.
    job.restored = [](const apps::PageRankVertex& v) {
      return std::isfinite(v.rank) && v.rank >= (1.0 - kDamping) - 1e-9;
    };
  } else {
    // The GAS program on the chromatic engine: gather/apply/scatter,
    // coalesced ghost deltas and per-color barriers, no scheduler or
    // distributed lock.
    job.engine = "chromatic";
    const EngineOptions eo = job.options;
    job.make_update = [eo, traced](Graph* graph) {
      if (traced) {
        TimedPageRankProgram<Graph> program;
        program.inner.damping = kDamping;
        program.inner.tolerance = kTolerance;
        return CompileVertexProgram(graph, eo, program).update_fn();
      }
      apps::PageRankProgram<Graph> program;
      program.damping = kDamping;
      program.tolerance = kTolerance;
      return CompileVertexProgram(graph, eo, program).update_fn();
    };
  }
  RunJob(job, spans, args.corrupt, rep);
  if (!rep->error.empty()) return;
  if (args.corrupt) global.vertex_data(0).rank += 1.0;
  CheckPageRank(global, exact, kTolerance, rep);
}

void RunAls(const Args& args, SpanLog* spans, Rep* rep) {
  using Graph = DistributedGraph<apps::AlsVertex, apps::AlsEdge>;
  constexpr uint32_t kRank = 20;
  constexpr double kLambda = 0.05;
  // Training RMSE a converged model must reach: the planted ratings carry
  // Gaussian noise of sd 0.1, so a fit within 1.5x of the noise level.
  constexpr double kTrainRmseBound = 0.15;
  apps::AlsProblem problem;
  problem.num_users = args.smoke ? 1000 : 10000;
  problem.num_items = args.smoke ? 100 : 1000;
  problem.ratings_per_user = 20;
  problem.seed = args.seed;
  apps::AlsGraph global = apps::BuildAlsGraph(problem, kRank);
  GraphStructure structure = global.Structure();

  Job<apps::AlsVertex, apps::AlsEdge> job;
  job.global = &global;
  job.structure = &structure;
  job.seed = args.seed;
  job.engine = "chromatic";
  job.options = EngineShape();
  job.options.max_sweeps = args.smoke ? 3 : 10;  // fixed sweep budget
  job.cluster = ClusterShape(rpc::TransportKind::kTcp);
  // Tolerance 0: every solve re-signals its neighbours, so each sweep
  // updates every vertex and the update count is fixed by the budget.
  job.make_update = [](Graph*) {
    return apps::MakeAlsUpdateFn<Graph>(kLambda, /*tolerance=*/0.0);
  };
  RunJob(job, spans, args.corrupt, rep);
  if (!rep->error.empty()) return;
  if (args.corrupt) {
    for (double& x : global.vertex_data(0).factors) x = 1e3;
  }
  const double rmse = apps::AlsRmse(global, /*test_edges=*/false);
  rep->AddCheck("als.train_rmse", std::isfinite(rmse) && rmse <= kTrainRmseBound,
                rmse, kTrainRmseBound);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  graphlab::OptionMap cli;
  cli.ParseArgs(argc, argv);
  Args args;
  args.workload = cli.GetString("workload", "");
  args.seed = static_cast<uint64_t>(cli.GetInt("seed", 1));
  args.trace = cli.GetBool("trace", false);
  args.smoke = cli.GetBool("smoke", false);
  args.corrupt = cli.GetBool("corrupt", false);
  args.out = cli.GetString("out", ".");

  SpanLog log;
  SpanLog* spans = args.trace ? &log : nullptr;
  Rep rep;
  if (args.workload == "pagerank_chromatic") {
    RunPageRank(args, /*locking=*/false, spans, &rep);
  } else if (args.workload == "pagerank_locking") {
    RunPageRank(args, /*locking=*/true, spans, &rep);
  } else if (args.workload == "als_tcp") {
    RunAls(args, spans, &rep);
  } else {
    std::fprintf(stderr,
                 "unknown --workload=%s (expected pagerank_chromatic|"
                 "pagerank_locking|als_tcp)\n",
                 args.workload.c_str());
    return 2;
  }
  rep.Set("peak_rss_mb", PeakRssMb());
  if (spans != nullptr) {
    rep.trace_file = args.out + "/" + args.workload + "-" +
                     std::to_string(args.seed) + "-" +
                     std::to_string(getpid()) + ".trace.json";
    if (!log.WriteChromeTrace(rep.trace_file)) {
      rep.error = "cannot write " + rep.trace_file;
    }
  }
  PrintJson(rep);
  return rep.ok() ? 0 : 1;
}
