// Encoding explorer: a worked reproduction of the paper's Fig. 2
// (partitioned cache-line encoding) and Algorithm 1's threshold machinery.
//
//   $ ./encoding_explorer
//
// Shows, for a concrete 64 B line whose partitions have different bit
// densities, what whole-line vs partitioned encoding store, and what each
// costs to read/write; then prints the precomputed threshold table
// Th_bit1num[Wr_num] for W = 15.
#include <iomanip>
#include <iostream>
#include <vector>

#include "cnt/encoding.hpp"
#include "cnt/threshold.hpp"
#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "energy/sram_cell.hpp"

using namespace cnt;

namespace {

Energy line_read_cost(const PartitionScheme& ps, const BitEnergies& cell,
                      std::span<const u8> logical, u64 dirs) {
  Energy e{};
  for (usize p = 0; p < ps.partitions(); ++p) {
    e += read_energy_counts(
        cell, ps.partition_bits(),
        stored_partition_ones(ps, logical, p, (dirs >> p) & 1));
  }
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Parser cli("encoding_explorer",
                        "Work through Fig. 2 and the W = 15 thresholds.");
  if (const auto rc = cli.parse(argc, argv)) return *rc;

  const BitEnergies cell = TechParams::cnfet().cell;
  const PartitionScheme ps(64, 8);

  std::cout << "Fig. 2 reproduction: partitioned cache-line encoding\n"
            << "====================================================\n\n";

  // Construct the figure's scenario: raw data with far more '0' than '1'
  // bits overall, except one partition (K-1) that is '1'-dense.
  std::vector<u8> line(64, 0);
  for (usize i = 0; i < 56; ++i) line[i] = (i % 9 == 0) ? 0x21 : 0x00;
  for (usize i = 56; i < 64; ++i) line[i] = 0xEF;  // dense partition 7

  const auto ones = partition_ones(ps, line);
  Table layout({"partition", "bit1/64", "density"});
  for (usize p = 0; p < 8; ++p) {
    layout.add_row({std::to_string(p), std::to_string(ones[p]),
                    Table::pct(static_cast<double>(ones[p]) / 64.0)});
  }
  std::cout << layout.render() << "\n";

  // Read-intensive line: encode to maximize stored '1's.
  const u64 whole_line_dirs = popcount(line) * 2 < 512 ? 0xFF : 0x00;
  u64 partitioned_dirs = 0;
  for (usize p = 0; p < 8; ++p) {
    if (ones[p] * 2 < 64) partitioned_dirs |= 1ULL << p;
  }

  Table cmp({"encoding", "direction bits", "stored 1s", "read cost"});
  cmp.add_row({"raw (no encoding)", "00000000",
               std::to_string(popcount(line)),
               line_read_cost(ps, cell, line, 0).to_string()});
  cmp.add_row({"whole-line invert",
               whole_line_dirs == 0xFF ? "11111111" : "00000000",
               std::to_string(stored_ones(ps, line, whole_line_dirs)),
               line_read_cost(ps, cell, line, whole_line_dirs).to_string()});
  std::string dir_str;
  for (usize p = 8; p-- > 0;) dir_str += ((partitioned_dirs >> p) & 1) ? '1' : '0';
  cmp.add_row({"partitioned (K=8)", dir_str,
               std::to_string(stored_ones(ps, line, partitioned_dirs)),
               line_read_cost(ps, cell, line, partitioned_dirs).to_string()});
  std::cout << cmp.render() << "\n";
  std::cout << "The whole-line invert needlessly flips the dense partition "
               "7; the\npartitioned encoding leaves it alone (the paper's "
               "Fig. 2 argument).\n\n";

  // Threshold table (Algorithm 1 / Eq. 6) for W = 15 on 64-bit partitions.
  std::cout << "Threshold table, W = 15, 64-bit partitions\n"
            << "------------------------------------------\n";
  const ThresholdTable tt(cell, 15, 64);
  std::cout << "Th_rd (Eq. 3) = " << std::fixed << std::setprecision(2)
            << tt.th_rd() << " (roughly W/2, as the paper notes)\n\n";
  Table th({"Wr_num", "pattern", "E_save/bit", "Th_bit1num"});
  for (usize wr = 0; wr <= 15; ++wr) {
    th.add_row({std::to_string(wr),
                tt.is_write_intensive(wr) ? "write-intensive" : "read-intensive",
                tt.e_save(wr).to_string(),
                Table::num(tt.threshold(wr), 1)});
  }
  std::cout << th.render();
  std::cout << "\nA switch fires when bit1num crosses Th_bit1num in the "
               "pattern's direction\n(below it for read-intensive windows, "
               "above it for write-intensive ones).\n";
  return 0;
}
