// `eim_benchmark compare A.json B.json`: one row per (metric, workload) of
// two full passes written by `run.sh --out`, judged against the end-to-end
// bounds in BENCHMARK.json.
#pragma once

#include <string>

namespace eim::benchmark {

/// Prints the table; returns 1 if any pair is worse than its bound, else 0.
[[nodiscard]] int compare_passes(const std::string& a_path, const std::string& b_path,
                                 const std::string& bench_path);

}  // namespace eim::benchmark
