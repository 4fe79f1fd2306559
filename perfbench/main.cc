// fedbench: runs one benchmark workload.
//
//   fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--git-commit <sha>]
//
// Prints the run metadata as a JSON line, progress on stderr, and the
// result object as the last line of standard output.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value);
    } else if (flag == "--trace") {
      o.trace = std::atoi(value) != 0;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--git-commit") {
      o.git_commit = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || o.seconds <= 0) {
    std::fprintf(stderr, "usage: %s --workload <", argv[0]);
    for (const std::string& n : perfbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr,
                 " > --seed <n> --seconds <s> --trace <0|1> [--out-dir d]\n");
    return 2;
  }
  return perfbench::RunWorkload(o);
}
