// Device explorer: walk the whole modeling stack bottom-up for one CNFET
// design point -- transistor quantities, derived 6T-cell energies, the
// threshold table they imply, and the headline cache saving.
//
//   $ ./device_explorer 6 1.2 0.8   # tubes, diameter in nm, VDD
#include <iostream>
#include <limits>

#include "cnt/threshold.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "device/cell_derivation.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

using namespace cnt;

int main(int argc, char** argv) {
  CnfetDeviceParams dev;
  u64 tubes = dev.tubes_per_device;
  cli::Parser cli("device_explorer", "Walk one CNFET design point bottom-up.");
  cli.positional(&tubes, "tubes", "nanotubes per device",
                 {.max = std::numeric_limits<u32>::max()})
      .positional(&dev.diameter_nm, "diameter_nm", "tube diameter in nm")
      .positional(&dev.vdd, "vdd", "supply voltage in V");
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  dev.tubes_per_device = static_cast<u32>(tubes);

  std::cout << "CNFET device -> cell -> cache, bottom up\n"
            << "=========================================\n\n";

  CnfetDevice d;
  try {
    d = evaluate(dev);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  Table dt({"device quantity", "value"});
  dt.add_row({"tubes per device", std::to_string(dev.tubes_per_device)});
  dt.add_row({"tube diameter", Table::num(dev.diameter_nm, 2) + " nm"});
  dt.add_row({"VDD", Table::num(dev.vdd, 2) + " V"});
  dt.add_row({"threshold Vth", Table::num(d.vth, 3) + " V"});
  dt.add_row({"Ion (n / p)", Table::num(d.ion_n * 1e6, 1) + " / " +
                                 Table::num(d.ion_p * 1e6, 1) + " uA"});
  dt.add_row({"device capacitance", Table::num(d.c_device * 1e18, 0) + " aF"});
  dt.add_row({"switch energy", Energy::joules(d.switch_energy).to_string()});
  std::cout << dt.render() << "\n";

  const TechParams tech = derive_tech_params(dev);
  Table ct({"cell energy", "derived", "calibrated table"});
  const BitEnergies calib = TechParams::cnfet().cell;
  ct.add_row({"E_rd0", tech.cell.rd0.to_string(), calib.rd0.to_string()});
  ct.add_row({"E_rd1", tech.cell.rd1.to_string(), calib.rd1.to_string()});
  ct.add_row({"E_wr0", tech.cell.wr0.to_string(), calib.wr0.to_string()});
  ct.add_row({"E_wr1", tech.cell.wr1.to_string(), calib.wr1.to_string()});
  ct.add_row({"wr1/wr0", Table::num(tech.cell.wr1 / tech.cell.wr0, 2) + "x",
              Table::num(calib.wr1 / calib.wr0, 2) + "x"});
  ct.add_row({"clock", Table::num(tech.clock_ghz, 2) + " GHz",
              Table::num(TechParams::cnfet().clock_ghz, 2) + " GHz"});
  std::cout << ct.render() << "\n";

  const ThresholdTable tt(tech.cell, 15, 64);
  std::cout << "Th_rd (Eq. 3, W=15): " << Table::num(tt.th_rd(), 2)
            << "  (paper: roughly W/2)\n\n";

  std::cout << "running the suite (scale 0.2) with the derived cell...\n";
  SimConfig cfg;
  cfg.tech = tech;
  cfg.with_cmos = cfg.with_static = cfg.with_ideal = false;
  const auto results = run_suite(cfg, 0.2);
  std::cout << "mean CNT-Cache saving with this device: "
            << Table::pct(mean_saving(results)) << "\n";
  return 0;
}
