// Island-scaling bench for the distributed search layer (src/dist): the
// same search budget evolved as K = 1, 2, 4 islands (inline coordinator —
// no subprocesses, so the numbers isolate partitioning + migration + merge
// cost from process supervision), plus micro-timings of the two merge-path
// primitives (select_migrants over a round-boundary checkpoint and
// merge_islands over the finished workdir).
//
// Deterministic: fixed seed, fixed topology; the merged front sizes and
// migrant counts printed here are stable across runs and machines.

#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/serialize.hpp"
#include "dist/coordinator.hpp"
#include "util/durable/checkpoint_chain.hpp"

namespace hadas {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

dist::DistSpec bench_spec() {
  dist::DistSpec spec;
  spec.device = "tx2-gpu";
  spec.space = "attentive";
  spec.outer_population = bench::paper_budget() ? 16 : 8;
  spec.outer_generations = bench::paper_budget() ? 8 : 4;
  spec.ioe_backbones_per_generation = 1;
  spec.ioe_population = 8;
  spec.ioe_generations = bench::paper_budget() ? 8 : 4;
  spec.seed = 20230417;
  spec.train_size = bench::paper_budget() ? 600 : 200;
  spec.epochs = 2;
  spec.migration_every = 2;
  spec.migrants = 2;
  return spec;
}

}  // namespace
}  // namespace hadas

int main() {
  using namespace hadas;
  const std::string out = bench::out_dir();
  util::Json doc;
  util::Json rows;
  util::Json::Array& row_list = rows.make_array();

  std::cout << "== dist island scaling (inline coordinator) ==\n";
  std::string workdir_k2;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    dist::DistSpec spec = bench_spec();
    spec.islands = k;
    const std::string workdir = out + "/dist_k" + std::to_string(k);
    std::filesystem::remove_all(workdir);
    if (k == 2) workdir_k2 = workdir;

    dist::DistOptions options;
    options.spawn = false;
    const auto start = std::chrono::steady_clock::now();
    const dist::DistReport report =
        dist::DistCoordinator(spec, workdir, options).run();
    const double wall = seconds_since(start);

    const std::size_t front = report.merged.at("final_pareto").size();
    std::cout << "  K=" << k << ": " << wall << " s, front " << front
              << ", migrants exchanged " << report.migrants_exchanged << "\n";
    util::Json row;
    row["islands"] = util::Json(k);
    row["wall_s"] = util::Json(wall);
    row["front"] = util::Json(front);
    row["migrants_exchanged"] = util::Json(report.migrants_exchanged);
    row_list.push_back(row);
  }
  doc["island_scaling"] = rows;

  // Micro-timings over the K=2 workdir the scaling loop just produced.
  {
    const dist::DistSpec spec = [] {
      dist::DistSpec s = bench_spec();
      s.islands = 2;
      return s;
    }();
    const auto space = spec.search_space();
    const util::durable::CheckpointChain chain(
        dist::chain_path(workdir_k2, 0), spec.checkpoint_keep);
    const auto loaded = core::load_checkpoint_chain(chain);
    if (!loaded.has_value()) {
      std::cerr << "bench_dist: K=2 chain unexpectedly empty\n";
      return 1;
    }

    constexpr std::size_t kReps = 200;
    auto start = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < kReps; ++i)
      sink += dist::select_migrants(space, spec, loaded->checkpoint).size();
    const double select_us = seconds_since(start) / kReps * 1e6;

    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kReps; ++i)
      sink += dist::merge_islands(spec, workdir_k2).at("final_pareto").size();
    const double merge_us = seconds_since(start) / kReps * 1e6;

    std::cout << "== merge-path primitives (K=2 workdir) ==\n"
              << "  select_migrants: " << select_us << " us/call\n"
              << "  merge_islands:   " << merge_us << " us/call"
              << "  (sink " << sink << ")\n";
    util::Json micro;
    micro["select_migrants_us"] = util::Json(select_us);
    micro["merge_islands_us"] = util::Json(merge_us);
    doc["merge_primitives"] = micro;
  }

  bench::write_result_json(out + "/dist.json", doc);
  std::cout << "wrote " << out << "/dist.json\n";
  return 0;
}
