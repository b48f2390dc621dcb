// Measures what the GAS abstraction costs over a handwritten update
// function.
//
//  E1  PageRank: classic update fn vs compiled GAS program — per-update
//      CPU cost and total update count to convergence.  PageRank's gather
//      is one multiply-add per in-edge, so this is the worst case for GAS
//      dispatch overhead.
//  E2  Loopy BP (K states): the gather folds K-vector message products;
//      same table.
//
// Each variant runs kReps times, the variants alternating within a rep so
// slow drift on the host hits both alike.  The table reports the median
// and interquartile range of µs/update (busy CPU per update) across reps.
//
// Usage: ./bench_gas_overhead [--vertices=20000] [--threads=2]
//                             [--engine=shared_memory] [--out=FILE]
//                             [--help]
//
// Emits BENCH_gas.json (the gas-overhead perf trajectory artifact the
// bench-smoke CI job validates and uploads).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "graphlab/apps/loopy_bp.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/util/options.h"
#include "graphlab/vertex_program/gas_compiler.h"

namespace graphlab {
namespace {

constexpr int kReps = 5;

/// Machine-readable mirror of the console tables (BENCH_gas.json).
bench::JsonWriter* g_json = nullptr;

/// Linear-interpolation quantile of an ascending-sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// One measured variant: a name and a run to convergence.
struct Variant {
  const char* name;
  std::function<RunResult()> run;
};

void RunAndReport(const std::string& experiment,
                  const std::vector<Variant>& variants) {
  // Per variant: µs/update and update count, one sample per rep.
  std::vector<std::vector<double>> us(variants.size());
  std::vector<std::vector<double>> updates(variants.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < variants.size(); ++i) {
      const RunResult r = variants[i].run();
      us[i].push_back(r.updates == 0 ? 0.0
                                     : 1e6 * r.busy_seconds / r.updates);
      updates[i].push_back(static_cast<double>(r.updates));
    }
  }
  std::printf("%-20s %12s %12s %12s %12s\n", "variant", "updates_p50",
              "us/upd_p50", "us/upd_p25", "us/upd_p75");
  for (size_t i = 0; i < variants.size(); ++i) {
    std::sort(us[i].begin(), us[i].end());
    std::sort(updates[i].begin(), updates[i].end());
    const double p25 = Quantile(us[i], 0.25);
    const double p50 = Quantile(us[i], 0.50);
    const double p75 = Quantile(us[i], 0.75);
    const double updates_p50 = Quantile(updates[i], 0.50);
    std::printf("%-20s %12.0f %12.3f %12.3f %12.3f\n", variants[i].name,
                updates_p50, p50, p25, p75);
    g_json->AddRow()
        .Set("experiment", experiment)
        .Set("variant", variants[i].name)
        .Set("reps", kReps)
        .Set("updates_p50", updates_p50)
        .Set("us_per_update_p50", p50)
        .Set("us_per_update_iqr", p75 - p25);
  }
}

void E1PageRank(uint64_t n, size_t threads, const std::string& engine) {
  bench::PrintHeader("GAS overhead, PageRank (engine=" + engine + ")");
  const auto web = gen::PowerLawWeb(n, 8, 0.85, 1);
  EngineOptions eo;
  eo.num_threads = threads;
  const std::vector<Variant> variants = {
      {"classic update fn",
       [&] {
         auto g = apps::BuildPageRankGraph(web);
         auto r = apps::SolvePageRank(&g, engine, eo, 0.85, 1e-6);
         GL_CHECK_OK(r.status());
         return r.value();
       }},
      {"gas vertex program",
       [&] {
         auto g = apps::BuildPageRankGraph(web);
         auto r = apps::SolveGasPageRank(&g, engine, eo, 0.85, 1e-6);
         GL_CHECK_OK(r.status());
         return r.value();
       }},
  };
  RunAndReport("pagerank", variants);
}

void E2LoopyBp(uint64_t side, size_t threads, const std::string& engine) {
  bench::PrintHeader("GAS overhead, loopy BP on a " +
                     std::to_string(side) + "x" + std::to_string(side) +
                     " grid, 5 states (engine=" + engine + ")");
  const auto structure = gen::Grid2D(side, side);
  EngineOptions eo;
  eo.num_threads = threads;
  const apps::PottsPotential psi{1.5};
  const std::vector<Variant> variants = {
      {"classic update fn",
       [&] {
         auto g = apps::BuildMrf(structure, 5, 0.15, 1.2, 7);
         auto r = apps::SolveBp(&g, engine, eo, psi, 1e-5);
         GL_CHECK_OK(r.status());
         return r.value();
       }},
      {"gas vertex program",
       [&] {
         auto g = apps::BuildMrf(structure, 5, 0.15, 1.2, 7);
         auto r = apps::SolveGasBp(&g, engine, eo, psi, 1e-5);
         GL_CHECK_OK(r.status());
         return r.value();
       }},
  };
  RunAndReport("loopy_bp", variants);
}

}  // namespace
}  // namespace graphlab

int main(int argc, char** argv) {
  graphlab::OptionMap opts;
  opts.ParseArgs(argc, argv);
  if (opts.Has("help")) {
    std::printf(
        "GAS-vs-handwritten overhead bench.\n"
        "  --vertices=N   PageRank graph size (default 20000)\n"
        "  --threads=T    engine workers      (default 2)\n"
        "  --engine=NAME  strategy: %s        (default shared_memory)\n"
        "  --out=FILE     JSON path           (default BENCH_gas.json)\n",
        graphlab::JoinNames(graphlab::ListLocalEngineNames()).c_str());
    return 0;
  }
  const uint64_t n = opts.GetInt("vertices", 20000);
  const size_t threads = opts.GetInt("threads", 2);
  const std::string engine = opts.GetString("engine", "shared_memory");

  graphlab::bench::JsonWriter json("gas");
  json.meta().Set("vertices", n).Set("threads", threads).Set("engine",
                                                             engine);
  graphlab::g_json = &json;
  graphlab::E1PageRank(n, threads, engine);
  graphlab::E2LoopyBp(60, threads, engine);
  json.WriteFile(opts.GetString("out", ""));
  return 0;
}
