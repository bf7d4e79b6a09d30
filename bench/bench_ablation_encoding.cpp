// §3.1 ablation — why log encoding and not Huffman or bitmap coding?
//
// Compresses the *same* RRR collections with all four codecs and reports
// footprint plus host decode throughput. The paper's argument reproduces:
// Huffman edges out bit-packing on size for hub-skewed collections but
// decodes bit-serially; bitmaps only pay off for near-critical dense sets;
// log encoding combines competitive size with by far the fastest random
// decode, which is what a GPU kernel needs.
#include <chrono>
#include <iostream>

#include "common.hpp"
#include "eim/encoding/bit_packed_array.hpp"
#include "eim/encoding/bitmap_set.hpp"
#include "eim/encoding/huffman.hpp"
#include "eim/encoding/varint.hpp"
#include "eim/imm/imm.hpp"
#include "eim/imm/rrr_store.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main() {
  using namespace eim;
  const bench::BenchEnv env = bench::load_env();

  std::cout << "Encoding ablation over RRR collections (IC, 50k sets each)\n\n";
  support::TextTable table({"Dataset", "raw MB", "log-enc MB", "huffman MB",
                            "varint MB", "bitmap MB", "log decode Melem/s",
                            "huffman decode Melem/s"});

  for (const auto& spec : env.datasets) {
    // Keep the ablation affordable: representative subset unless overridden.
    if (std::getenv("EIM_BENCH_DATASETS") == nullptr &&
        spec.abbrev != "WV" && spec.abbrev != "EE" && spec.abbrev != "CA" &&
        spec.abbrev != "SPR") {
      continue;
    }
    const graph::Graph g =
        graph::build_dataset(spec, graph::DiffusionModel::IndependentCascade);
    imm::ImmParams params;
    imm::RrrStore store(g.num_vertices());
    (void)imm::sample_to_target(g, graph::DiffusionModel::IndependentCascade, params,
                                store, 50'000);

    // Flatten R.
    std::vector<std::uint32_t> flat;
    flat.reserve(store.total_elements());
    for (std::uint64_t i = 0; i < store.num_sets(); ++i) {
      const auto set = store.set(i);
      flat.insert(flat.end(), set.begin(), set.end());
    }
    const double raw_mb = static_cast<double>(flat.size()) * 4 / 1e6;

    // Log encoding.
    const auto packed = encoding::BitPackedArray::encode_u32(flat);

    // Huffman over the same stream.
    const auto huff = encoding::huffman_encode(flat);

    // Varint.
    std::vector<std::uint64_t> wide(flat.begin(), flat.end());
    const auto var_bytes = encoding::varint_encode(wide);

    // Hybrid bitmap per set.
    std::uint64_t bitmap_bytes = 0;
    for (std::uint64_t i = 0; i < store.num_sets(); ++i) {
      bitmap_bytes += encoding::bitmap_encode_set(store.set(i), g.num_vertices()).bytes();
    }

    // Decode throughput (host wall clock; relative numbers are the point).
    const auto t1 = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < packed.size(); ++i) sink += packed.get(i);
    const double log_rate =
        static_cast<double>(packed.size()) / seconds_since(t1) / 1e6;

    const auto t2 = std::chrono::steady_clock::now();
    const auto decoded = encoding::huffman_decode(huff);
    sink += decoded.size();
    const double huff_rate =
        static_cast<double>(decoded.size()) / seconds_since(t2) / 1e6;
    if (sink == 0) std::cout << "";  // keep the decode loops alive

    table.add_row({std::string(spec.abbrev), support::TextTable::num(raw_mb, 2),
                   support::TextTable::num(static_cast<double>(packed.storage_bytes()) / 1e6, 2),
                   support::TextTable::num(static_cast<double>(huff.total_bytes()) / 1e6, 2),
                   support::TextTable::num(static_cast<double>(var_bytes.size()) / 1e6, 2),
                   support::TextTable::num(static_cast<double>(bitmap_bytes) / 1e6, 2),
                   support::TextTable::num(log_rate, 0),
                   support::TextTable::num(huff_rate, 0)});
  }
  table.print(std::cout);
  return 0;
}
