// perfbench: one run of one workload of the dblind benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans PATH] [--inject-fault]
//
// Prints notes (tails, sample counts, tracing overhead) and, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. perfbench/run.py builds this program and wraps it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

const std::vector<std::string>& perfbench::workload_names() {
  static const std::vector<std::string> names = {"ec255-open-loop", "modp2048-dkg",
                                                 "ec255-byzantine-churn",
                                                 "ec255-threaded-client"};
  return names;
}

namespace {

using perfbench::Args;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans PATH] [--inject-fault]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--inject-fault") {
      a.inject_fault = true;
    } else if (arg == "--spans") {
      a.spans_out = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), m.value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end())
    usage(("unknown workload " + args.workload).c_str());

  Report report;
  perfbench::Spans spans(args.trace);
  try {
    if (args.workload == "ec255-threaded-client") {
      perfbench::run_threaded_workload(args, report, spans);
    } else {
      perfbench::run_sim_workload(args, report, spans);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  for (auto& [name, m] : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.violation("metric " + name + " is not a finite number");
      m.value = 0;
    }
  }
  if (report.attempted == 0) report.violation("no transfer was attempted");

  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  if (args.trace) {
    for (const std::string& line : spans.summary()) std::printf("%s\n", line.c_str());
    if (!args.spans_out.empty()) {
      spans.write_jsonl(args.spans_out);
      std::printf("spans written to %s\n", args.spans_out.c_str());
    }
  }
  print_json(report);
  return 0;
}
