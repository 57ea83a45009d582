// Reproduces the §5 software-complexity comparison: the programming-effort
// overhead of the Driver-Kernel scheme relative to GDB-Kernel.
//
// Paper: "the Driver-Kernel requires an overhead (measured in lines of
// code) of about 40% on the SystemC side, and of a factor 9x on the C++
// side (due to the writing of a new driver), with respect to the GDB-Kernel
// scheme."
//
// We count the actual sources of this repository:
//   SystemC side  : the kernel extension implementing each scheme
//   software side : the guest program plus (Driver-Kernel only) the device
//                   driver (ScPortDriver) and the RTOS syscall surface the
//                   driver relies on
//
//   $ ./bench_loc
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "router/guest_programs.hpp"
#include "util/loc.hpp"

using namespace nisc;

namespace {

int file_loc(const std::string& path) {
  try {
    return util::count_loc_file(path).code;
  } catch (...) {
    std::fprintf(stderr, "warning: cannot read %s (run from the repo root or build/)\n",
                 path.c_str());
    return 0;
  }
}

int first_existing(const std::string& a, const std::string& b) {
  int loc = file_loc(a);
  return loc > 0 ? loc : file_loc(b);
}

}  // namespace

int main() {
  // Sources are looked up relative to the repo root and from build/.
  auto repo = [](const char* p) { return std::string("src/") + p; };
  auto up = [](const char* p) { return std::string("../src/") + p; };

  // SystemC-side implementation of each scheme.
  int gdb_sc = first_existing(repo("cosim/gdb_kernel.cpp"), up("cosim/gdb_kernel.cpp"));
  int drv_sc = first_existing(repo("cosim/driver_kernel.cpp"), up("cosim/driver_kernel.cpp"));

  // Software side: guest program (assembly) + driver stack for Driver-Kernel.
  int gdb_sw = util::count_loc(router::word_stream_checksum_source("r.to_cpu", "r.from_cpu")).code;
  int drv_guest = util::count_loc(router::bulk_checksum_source()).code;
  // The Driver-Kernel software stack: the device driver the designer writes
  // plus the RTOS driver framework it must target.
  int driver = first_existing(repo("cosim/sc_port_driver.cpp"), up("cosim/sc_port_driver.cpp"));
  int rtos_driver_api = first_existing(repo("rtos/rtos.cpp"), up("rtos/rtos.cpp"));
  int drv_sw = drv_guest + driver + rtos_driver_api / 4;  // driver-facing quarter of the RTOS

  std::printf("Software complexity (non-comment LoC), paper section 5\n\n");
  std::printf("%-28s %12s %12s %9s\n", "", "GDB-Kernel", "Driver-Kernel", "ratio");
  std::printf("%-28s %12d %12d %8.2fx   (paper: ~1.4x)\n", "SystemC side (scheme impl)",
              gdb_sc, drv_sc, gdb_sc > 0 ? static_cast<double>(drv_sc) / gdb_sc : 0.0);
  std::printf("%-28s %12d %12d %8.2fx   (paper: ~9x)\n", "software side (guest+driver)",
              gdb_sw, drv_sw, gdb_sw > 0 ? static_cast<double>(drv_sw) / gdb_sw : 0.0);
  std::printf("\nguest programs alone: GDB %d LoC, Driver %d LoC\n", gdb_sw, drv_guest);

  nisc::bench::Recorder recorder("loc");
  recorder.record("systemc/gdb_kernel", gdb_sc, "loc");
  recorder.record("systemc/driver_kernel", drv_sc, "loc");
  recorder.record("software/gdb_kernel", gdb_sw, "loc");
  recorder.record("software/driver_kernel", drv_sw, "loc");
  recorder.write();
  return 0;
}
