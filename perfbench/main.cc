// pxq_perfbench: runs one workload of the end-to-end benchmark and
// writes its report (and, traced, its spans) into --out. run.py builds
// this program, runs it and turns the report into the benchmark's
// result line.
//
//   pxq_perfbench run --workload xmark_read --seed 1 --seconds 10
//                     --trace 0 --out DIR     -> DIR/result.json
//                                                (+ DIR/trace.tsv)
//   pxq_perfbench hashes --workload xmark_read --seed 1
//                                             -> stream hashes on stdout
//
// Exit code: 0 when every check passed, 1 when one failed, 2 on a
// usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pxq_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --out DIR\n"
               "       pxq_perfbench hashes --workload W --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::RunConfig cfg;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::string(v) == "1";
    } else if (flag == "--out") {
      cfg.out_dir = v;
    } else {
      return Usage();
    }
  }

  if (mode == "hashes") {
    perfbench::StreamHashes h;
    if (!perfbench::HashStreams(cfg.workload, cfg.seed, &h)) return Usage();
    std::printf(
        "{\"xml\": \"%016llx\", \"queries\": \"%016llx\", "
        "\"xupdates\": \"%016llx\", \"xml_bytes\": %lld}\n",
        static_cast<unsigned long long>(h.xml),
        static_cast<unsigned long long>(h.queries),
        static_cast<unsigned long long>(h.xupdates),
        static_cast<long long>(h.xml_bytes));
    return 0;
  }
  if (mode != "run" || cfg.out_dir.empty() || cfg.seconds <= 0) {
    return Usage();
  }

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  perfbench::Report report;
  perfbench::TraceFile trace;
  if (!perfbench::RunWorkload(cfg, &report, cfg.trace ? &trace : nullptr)) {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  if (cfg.trace && !trace.Write(cfg.out_dir + "/trace.tsv")) {
    std::fprintf(stderr, "cannot write the trace file\n");
    return 2;
  }
  const std::string path = cfg.out_dir + "/result.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 2;
  std::fprintf(f, "%s\n", report.ToJson().c_str());
  if (std::fclose(f) != 0) return 2;
  return report.correct() ? 0 : 1;
}
