// The benchmark's workloads and its per-layer timings.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace dblind::obs {
class MetricsRegistry;
}  // namespace dblind::obs

namespace perfbench {

// Every workload name, in the order `--workload all` runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

// ec255-open-loop, modp2048-dkg and ec255-byzantine-churn: the Fig. 4
// protocol in the deterministic simulator (core::System).
void run_sim_workload(const Args& args, Report& report, Spans& spans);

// ec255-threaded-client: ProtocolServers on a net::ThreadedBus, one
// core::ClientNode at a time in a closed loop.
void run_threaded_workload(const Args& args, Report& report, Spans& spans);

// Per-layer timings of mpz, hash, group, elgamal, zkp and threshold, called
// from outside through their public functions on both backends.
void run_layer_timings(const Args& args, Report& report, Spans& spans);

// Message-type rows of the core.handler_us / handler_word_muls / rx_bytes
// families. Fig. 4 and client types have a row each; the nine
// reconfiguration types share the row "reconfig"; a type this list does not
// know lands in "other".
[[nodiscard]] const std::vector<std::string>& message_rows();

// Sums of the program's own metrics registry (ProtocolOptions::metrics)
// over one or more traced runs, reported per transfer.
struct CoreTotals {
  std::map<std::string, double> handler_us;  // by message row
  std::map<std::string, double> handler_ops;  // group ops, by message row
  std::map<std::string, double> rx_bytes;     // by message row
  double verify_pass = 0;
  double verify_fail = 0;
  double retransmits = 0;

  void add(const dblind::obs::MetricsRegistry& reg);
  // Sets the core.handler_* / rx_bytes / verify_* / retransmits rows.
  void report(Report& r, double transfers, double op_weight) const;
};

}  // namespace perfbench
