// Figure 6 reproduction: average deviation of SVM(RBF) model accuracy under
// SAP versus training on the original data, across the 12 UCI datasets, for
// SAP-Uniform and SAP-Class partition distributions.
//
// Same protocol as fig5 with the SMO-trained one-vs-one SVM. Paper shape:
// deviations within a few points of zero, slightly wider spread than KNN
// (the RBF kernel reacts to the noise term through every kernel value).
// Gate (exit code 1): every row's |deviation| stays below 10 points.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "classify/svm.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

int main() {
  using namespace sap;
  const std::size_t kParties = 4;
  const std::vector<std::uint64_t> seeds{11, 22};

  std::printf("== Figure 6: SVM(RBF) accuracy deviation under SAP (percentage points) ==\n");
  std::printf("(k=%zu parties, %zu seeds averaged, sigma=%.2f)\n\n", kParties, seeds.size(),
              bench::bench_sap_options().noise_sigma);

  Stopwatch sw;
  Table table({"dataset", "baseline acc", "SAP-Uniform dev", "SAP-Class dev"});
  constexpr double kBarPoints = 10.0;
  double worst = 0.0;
  for (const auto& spec : data::uci_suite()) {
    double base_sum = 0.0, dev_uniform = 0.0, dev_class = 0.0;
    for (const auto seed : seeds) {
      const auto [base_u, dev_u] = bench::accuracy_deviation<ml::Svm>(
          spec.name, data::PartitionKind::kUniform, kParties, seed,
          bench::bench_sap_options());
      const auto [base_c, dev_c] = bench::accuracy_deviation<ml::Svm>(
          spec.name, data::PartitionKind::kClass, kParties, seed,
          bench::bench_sap_options());
      base_sum += 0.5 * (base_u + base_c);
      dev_uniform += dev_u;
      dev_class += dev_c;
    }
    const auto n = static_cast<double>(seeds.size());
    table.add_row({spec.name, Table::num(base_sum / n * 100.0, 1),
                   Table::num(dev_uniform / n, 2), Table::num(dev_class / n, 2)});
    for (const double dev : {dev_uniform / n, dev_class / n})
      if (std::abs(dev) > std::abs(worst)) worst = dev;
  }
  bench::emit_table("fig6_svm_accuracy", table);
  std::printf("\npaper-shape check: deviations within single digits of zero "
              "(paper: -8..+1 points); worst here = %.2f.  elapsed=%.1fs\n", worst,
              sw.seconds());
  if (std::abs(worst) >= kBarPoints) {
    std::fprintf(stderr, "FAIL: |deviation| %.2f reaches the %.0f-point bar\n",
                 std::abs(worst), kBarPoints);
    return 1;
  }
  return 0;
}
