// cosim_ckpt: inspect, diff, save and restore session checkpoints
// (DESIGN.md §12).
//
//   cosim_ckpt inspect <file.ckpt>
//       Decodes (verifying magic/version/CRCs) and prints one line per
//       section.
//   cosim_ckpt diff <a.ckpt> <b.ckpt>
//       Field-level comparison; exit 0 when identical, 1 when they differ.
//   cosim_ckpt save <out.ckpt> --program <file.s> [--steps N] [--mem BYTES]
//       Assembles a guest program, runs it for N instructions on a local
//       ISS, and writes the resulting checkpoint.
//   cosim_ckpt restore <file.ckpt> [--steps N]
//       Restores the ISS section into a fresh CPU, optionally continues
//       executing, and prints the resulting state.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cosim/checkpoint.hpp"
#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "iss/program.hpp"
#include "util/error.hpp"

namespace {

using nisc::cosim::Checkpoint;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw nisc::util::RuntimeError("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw nisc::util::RuntimeError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

int usage() {
  std::fprintf(stderr,
               "usage: cosim_ckpt inspect <file.ckpt>\n"
               "       cosim_ckpt diff <a.ckpt> <b.ckpt>\n"
               "       cosim_ckpt save <out.ckpt> --program <file.s> [--steps N] [--mem BYTES]\n"
               "       cosim_ckpt restore <file.ckpt> [--steps N]\n");
  return 2;
}

int cmd_inspect(const std::string& path) {
  const Checkpoint checkpoint = nisc::cosim::decode_checkpoint(read_file(path));
  std::fputs(nisc::cosim::describe_checkpoint(checkpoint).c_str(), stdout);
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const Checkpoint a = nisc::cosim::decode_checkpoint(read_file(path_a));
  const Checkpoint b = nisc::cosim::decode_checkpoint(read_file(path_b));
  const std::vector<std::string> diffs = nisc::cosim::diff_checkpoints(a, b);
  if (diffs.empty()) {
    std::printf("identical\n");
    return 0;
  }
  for (const std::string& line : diffs) std::printf("%s\n", line.c_str());
  return 1;
}

int cmd_save(const std::string& out_path, const std::string& program_path, std::uint64_t steps,
             std::size_t mem_size) {
  const std::vector<std::uint8_t> source_bytes = read_file(program_path);
  const std::string source(reinterpret_cast<const char*>(source_bytes.data()),
                           source_bytes.size());
  const nisc::iss::Program program = nisc::iss::assemble(source);
  nisc::iss::Cpu cpu(mem_size);
  program.load_into(cpu.mem());
  cpu.set_pc(program.entry);
  const nisc::iss::Halt halt = cpu.run(steps);
  Checkpoint checkpoint;
  checkpoint.iss = nisc::cosim::IssSnapshot::capture(cpu);
  write_file(out_path, nisc::cosim::encode_checkpoint(checkpoint));
  std::printf("saved %s after %llu instruction(s), halt=%s\n", out_path.c_str(),
              static_cast<unsigned long long>(cpu.instret()), nisc::iss::halt_name(halt));
  return 0;
}

int cmd_restore(const std::string& path, std::uint64_t steps) {
  const Checkpoint checkpoint = nisc::cosim::decode_checkpoint(read_file(path));
  if (!checkpoint.iss) {
    std::fprintf(stderr, "cosim_ckpt: %s has no ISS section to restore\n", path.c_str());
    return 2;
  }
  nisc::iss::Cpu cpu(static_cast<std::size_t>(checkpoint.iss->mem_size));
  checkpoint.iss->apply(cpu);
  if (steps > 0) {
    const nisc::iss::Halt halt = cpu.run(steps);
    std::printf("continued %llu -> %llu instruction(s), halt=%s\n",
                static_cast<unsigned long long>(checkpoint.iss->instret),
                static_cast<unsigned long long>(cpu.instret()), nisc::iss::halt_name(halt));
  }
  Checkpoint now;
  now.iss = nisc::cosim::IssSnapshot::capture(cpu);
  std::fputs(nisc::cosim::describe_checkpoint(now).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "inspect") return cmd_inspect(argv[2]);
    if (cmd == "diff") {
      if (argc < 4) return usage();
      return cmd_diff(argv[2], argv[3]);
    }
    if (cmd == "save" || cmd == "restore") {
      std::string program_path;
      std::uint64_t steps = cmd == "save" ? 100000 : 0;
      std::size_t mem_size = 1 << 20;
      for (int i = 3; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--program") == 0) {
          program_path = argv[i + 1];
        } else if (std::strcmp(argv[i], "--steps") == 0) {
          steps = std::strtoull(argv[i + 1], nullptr, 10);
        } else if (std::strcmp(argv[i], "--mem") == 0) {
          mem_size = std::strtoull(argv[i + 1], nullptr, 10);
        } else {
          return usage();
        }
      }
      if (cmd == "restore") return cmd_restore(argv[2], steps);
      if (program_path.empty()) return usage();
      return cmd_save(argv[2], program_path, steps, mem_size);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosim_ckpt: %s\n", e.what());
    return 2;
  }
  return usage();
}
