#include "compare.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "eim/support/error.hpp"
#include "eim/support/json.hpp"
#include "eim/support/table.hpp"

namespace eim::benchmark {

namespace {

/// Read and parse a JSON file; throws support::IoError / JsonParseError.
support::JsonValue load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw support::IoError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return support::parse_json(text.str());
}

/// The metric's value in one workload of a pass, or nullptr when absent.
const support::JsonValue* metric_value(const support::JsonValue& pass,
                                       const std::string& workload,
                                       const std::string& metric) {
  const support::JsonValue* w = pass.at("workloads").find(workload);
  if (w == nullptr) return nullptr;
  const support::JsonValue* m = w->at("metrics").find(metric);
  return m != nullptr ? m->find("value") : nullptr;
}

}  // namespace

int compare_passes(const std::string& a_path, const std::string& b_path,
                   const std::string& bench_path) {
  const support::JsonValue a = load_json(a_path);
  const support::JsonValue b = load_json(b_path);
  const support::JsonValue bench = load_json(bench_path);

  support::TextTable table(
      {"workload", "metric", "unit", "A", "B", "worse by", "bound", ""});
  int out_of_bound = 0;
  for (const support::JsonValue& workload : bench.at("workloads").items()) {
    const std::string& w = workload.at("name").as_string();
    for (const support::JsonValue& metric : bench.at("end_to_end").items()) {
      const std::string& name = metric.at("name").as_string();
      const bool lower_is_better = metric.at("better").as_string() == "lower";
      const double bound = metric.at("bound").as_double();
      const support::JsonValue* va = metric_value(a, w, name);
      const support::JsonValue* vb = metric_value(b, w, name);
      if (va == nullptr || vb == nullptr) {
        table.add_row({w, name, metric.at("unit").as_string(), va ? "" : "missing",
                       vb ? "" : "missing", "", "", "MISSING"});
        ++out_of_bound;
        continue;
      }
      const double x = va->as_double();
      const double y = vb->as_double();
      // Worsening as a share of A; a zero A only tolerates no change.
      const double delta = lower_is_better ? y - x : x - y;
      const double worse = x != 0.0 ? delta / x : (delta > 0.0 ? 1.0 : 0.0);
      const bool ok = worse <= bound;
      if (!ok) ++out_of_bound;
      table.add_row({w, name, metric.at("unit").as_string(),
                     support::TextTable::num(x, 4), support::TextTable::num(y, 4),
                     support::TextTable::num(100.0 * worse, 2) + "%",
                     support::TextTable::num(100.0 * bound, 1) + "%",
                     ok ? "ok" : "OUT OF BOUND"});
    }
  }
  table.print(std::cout);
  if (out_of_bound == 0) {
    std::cout << "every pair within its bound\n";
  } else {
    std::cout << out_of_bound << " pair(s) out of bound\n";
  }
  return out_of_bound == 0 ? 0 : 1;
}

}  // namespace eim::benchmark
