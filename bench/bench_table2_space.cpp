// Table II: the joint HADAS search spaces — decision variables, value
// ranges and cardinalities for B (backbones), X (exits) and F (DVFS) — as
// instantiated by this implementation, plus the total space sizes.

#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "dynn/exit_placement.hpp"
#include "supernet/baselines.hpp"
#include "util/strutil.hpp"
#include "util/table.hpp"

using namespace hadas;

namespace {

/// `open` + `body` + `close`, built by appending: GCC 12 flags
/// `"{" + std::string` with a false -Wrestrict.
std::string enclose(const char* open, const std::string& body,
                    const char* close) {
  std::string out = open;
  out += body;
  out += close;
  return out;
}

}  // namespace

int main() {
  const auto space = supernet::SearchSpace::attentive_nas();

  std::cout << "=== Table II: HADAS joint search spaces ===\n\n";

  util::TextTable b({"decision variable", "values", "cardinality"},
                    {util::Align::kLeft, util::Align::kLeft, util::Align::kRight});
  b.set_title("Backbone search space (B)");
  b.add_row({"number of blocks (n_block)", "7", "1"});
  {
    std::vector<std::string> res;
    for (int r : space.resolutions) res.push_back(std::to_string(r));
    b.add_row({"input resolution (res)", enclose("{", util::join(res, ","), "}"),
               std::to_string(space.resolutions.size())});
  }
  for (std::size_t s = 0; s < supernet::kNumStages; ++s) {
    const auto& st = space.stages[s];
    auto fmt = [](const std::vector<int>& v) {
      std::vector<std::string> parts;
      for (int x : v) parts.push_back(std::to_string(x));
      return enclose("{", util::join(parts, ","), "}");
    };
    b.add_row({st.name + " (w, d, k, er)",
               fmt(st.widths) + " x " + fmt(st.depths) + " x " + fmt(st.kernels) +
                   " x " + fmt(st.expands),
               std::to_string(st.widths.size() * st.depths.size() *
                              st.kernels.size() * st.expands.size())});
  }
  b.add_row({"last conv width", "{1792, 1984}", std::to_string(space.last_widths.size())});
  b.print(std::cout);
  std::cout << "total |B| = 10^" << util::fmt_fixed(space.log10_cardinality(), 2)
            << "  (paper: 2.94e11 = 10^11.47)\n\n";

  util::TextTable x({"decision variable", "values", "example (a0 / a6)"},
                    {util::Align::kLeft, util::Align::kLeft, util::Align::kLeft});
  x.set_title("Exits search space (X), conditioned on the backbone depth");
  const int l_a0 = supernet::baseline_a0().total_layers();
  const int l_a6 = supernet::baseline_a6().total_layers();
  x.add_row({"number of exits (nX)", "[1, sum(l)-5]",
             std::to_string(l_a0 - 5) + " / " + std::to_string(l_a6 - 5) + " max"});
  x.add_row({"exit positions (posX)", "[5, sum(l))",
             "layers 5.." + std::to_string(l_a0 - 1) + " / 5.." +
                 std::to_string(l_a6 - 1)});
  x.print(std::cout);
  std::cout << "|X| for a0 = 2^" << (l_a0 - 5) << "-1, for a6 = 2^" << (l_a6 - 5)
            << "-1 placements\n\n";

  util::TextTable f({"hardware", "frequency range", "cardinality"},
                    {util::Align::kLeft, util::Align::kLeft, util::Align::kRight});
  f.set_title("DVFS search space (F)");
  for (hw::Target target : hw::all_targets()) {
    const hw::DeviceSpec dev = hw::make_device(target);
    f.add_row({dev.name + " (core)",
               enclose("[",
                       util::fmt_fixed(dev.core_freqs_hz.front() / 1e9, 1) +
                           "GHz, " +
                           util::fmt_fixed(dev.core_freqs_hz.back() / 1e9, 1),
                       "GHz]"),
               std::to_string(dev.core_freqs_hz.size())});
  }
  for (const char* platform : {"AGX", "TX2"}) {
    const hw::DeviceSpec dev = hw::make_device(
        platform == std::string("AGX") ? hw::Target::kAgxVoltaGpu
                                       : hw::Target::kTx2PascalGpu);
    f.add_row({std::string("EMC frequency (") + platform + " SOC)",
               enclose("[",
                       util::fmt_fixed(dev.emc_freqs_hz.front() / 1e9, 1) +
                           "GHz, " +
                           util::fmt_fixed(dev.emc_freqs_hz.back() / 1e9, 1),
                       "GHz]"),
               std::to_string(dev.emc_freqs_hz.size())});
  }
  f.print(std::cout);

  double joint_log10 = space.log10_cardinality() +
                       std::log10(std::pow(2.0, l_a6 - 5)) +
                       std::log10(13.0 * 11.0);
  std::cout << "\nexample joint |B x X x F| (a6-depth backbone on TX2 GPU) = 10^"
            << util::fmt_fixed(joint_log10, 1) << "\n";
  return 0;
}
