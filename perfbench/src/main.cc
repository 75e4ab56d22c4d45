// Benchmark driver. Usage:
//   perfbench --workload chase|kernels|serve --seed N --seconds S --trace 0|1
//             [--spans PATH]
// With --trace 0 it measures the end-to-end metrics for S seconds; with
// --trace 1 it makes one untraced and one traced pass and reports the
// per-layer metrics, writing the recorded spans to PATH. The last stdout line
// is the result object; the exit code is 0 only when every check passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload chase|kernels|serve --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) {
    return Usage("flags take one value each; --seconds must be positive");
  }

  perfbench::Report report;
  std::printf("workload %s, seed %llu, %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
  yieldhide::Status status = yieldhide::Status::Ok();
  if (options.workload == "chase") {
    status = perfbench::RunChase(options, report);
  } else if (options.workload == "kernels") {
    status = perfbench::RunKernels(options, report);
  } else if (options.workload == "serve") {
    status = perfbench::RunServe(options, report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (options.trace && !spans_path.empty()) {
    const std::filesystem::path path(spans_path);
    std::error_code ec;
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path(), ec);
    }
    const yieldhide::Status written = perfbench::GlobalTracer().WriteJson(spans_path);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("  spans: %zu written to %s\n", perfbench::GlobalTracer().size(),
                spans_path.c_str());
  }
  return report.Print();
}
