// The three simulator workloads: the Fig. 4 protocol driven through
// core::System in the deterministic discrete-event simulator.
//
// A run is a sequence of batches. Each batch builds a fresh System (that is
// the set-up sample: key generation for both services plus construction of
// every server), feeds it one batch of seeded transfers, runs it to
// completion and lets its timers run out (that is the run-phase sample).
// The first `count_batches`
// batches always run, whatever --seconds says, and the per-transfer counts
// (messages, bytes, word multiplications) come from exactly those, so the
// counts are exact under a seed. Throughput and set-up are medians over the
// batches, latency the median over every transfer of the run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Behavior = core::ProtocolServer::Behavior;
namespace net = dblind::net;
namespace obs = dblind::obs;

struct SimSpec {
  group::ParamId params = group::ParamId::kEc255;
  bool use_dkg = false;
  std::size_t transfers = 24;   // per batch
  double mean_gap_us = 20'000;  // Poisson inter-arrival mean, virtual µs
  net::Time delay_min = 5'000;  // network delay bounds, virtual µs
  net::Time delay_max = 5'000;
  std::vector<Behavior> a_behaviors;
  std::vector<Behavior> b_behaviors;
  unsigned dup_percent = 0;
  // One same-roster re-share of B per batch, proposed at a seeded time in
  // the first 50 ms; the transfers then arrive from `arrival_offset_us` on,
  // in the new epoch.
  bool reshare = false;
  std::uint64_t arrival_offset_us = 0;
  std::size_t count_batches = 4;
};

SimSpec spec_for(const std::string& workload, bool smoke) {
  SimSpec s;
  if (workload == "modp2048-dkg") {
    s.params = smoke ? group::ParamId::kToy64 : group::ParamId::kSec2048;
    s.use_dkg = true;
    // One transfer per batch: at 4 s of compute each, two overlapping
    // arrivals would make latency a matter of the seed's arrival gap.
    s.transfers = 1;
    s.count_batches = 2;
  } else if (workload == "ec255-byzantine-churn") {
    s.transfers = 12;
    s.delay_min = 500;  // the System defaults: asynchronous, reordering links
    s.delay_max = 20'000;
    s.a_behaviors = {Behavior::kHonest, Behavior::kHonest, Behavior::kHonest, Behavior::kSilent};
    s.b_behaviors = {Behavior::kBogusBlindCoordinator};
    s.dup_percent = 10;
    s.reshare = true;
    s.arrival_offset_us = 3'000'000;
    s.count_batches = 6;  // duplication makes counts vary per transfer: average more
  }
  if (smoke) {
    s.transfers = std::min<std::size_t>(s.transfers, 3);
    s.count_batches = 1;
  }
  return s;
}

struct BatchResult {
  double setup_s = 0;
  double run_s = 0;
  std::size_t attempted = 0;
  std::size_t completed = 0;
  net::NetStats net;
  std::uint64_t word_muls = 0;
  double cpu_a_s = 0;
  double cpu_b_s = 0;
  std::vector<double> latency_ms;          // wall, arrival -> every honest B holds E_B(m)
  std::vector<double> virtual_latency_ms;  // traced batches only
  std::size_t aborted_transfers = 0;       // traced batches only
};

// Result checks shared by every batch of a run.
struct Checks {
  std::map<std::vector<std::uint8_t>, core::TransferId> first_components;
  bool inject_fault = false;  // see Args::inject_fault; cleared once used
};

BatchResult run_batch(const SimSpec& spec, mpz::Prng inputs, bool traced, CoreTotals* totals,
                      Checks& checks, Report& report, Spans& spans) {
  BatchResult out;
  obs::MemoryTraceRecorder trace;
  obs::MetricsRegistry registry;

  core::SystemOptions o;
  o.params = group::GroupParams::named(spec.params);
  o.a = {4, 1};
  o.b = {4, 1};
  o.seed = inputs.next_u64();
  o.delay_min = spec.delay_min;
  o.delay_max = spec.delay_max;
  o.a_behaviors = spec.a_behaviors;
  o.b_behaviors = spec.b_behaviors;
  o.use_dkg = spec.use_dkg;
  if (traced) {
    o.protocol.trace = &trace;
    o.protocol.metrics = &registry;
  }

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<core::System> sys;
  {
    Spans::Scope span(spans, "core.System.construct");
    sys = std::make_unique<core::System>(std::move(o));
  }
  out.setup_s = seconds_since(t0);
  const group::GroupParams& params = sys->config().params;

  sys->sim().set_duplication_percent(spec.dup_percent);

  // Transfer ids[i] arrives at virtual time at[i], in increasing order.
  std::vector<core::TransferId> ids;
  std::vector<std::uint64_t> at = poisson_arrivals(inputs, spec.transfers, spec.mean_gap_us);
  for (std::uint64_t& t : at) t += spec.arrival_offset_us;
  {
    Spans::Scope span(spans, "core.System.add_transfer_arriving");
    for (std::size_t i = 0; i < spec.transfers; ++i)
      ids.push_back(sys->add_transfer_arriving(random_plaintext(params, inputs), at[i]));
    if (spec.reshare) {
      std::vector<net::NodeId> roster;
      for (core::ServerRank r = 1; r <= 4; ++r) roster.push_back(sys->b_node(r));
      sys->schedule_reconfig_b(sys->make_b_spec(1, 1, roster), 1 + inputs.uniform_u64(50'000));
    }
  }

  std::vector<core::ServerRank> honest_b;
  for (core::ServerRank r = 1; r <= 4; ++r) {
    if (sys->is_honest_b(r)) honest_b.push_back(r);
  }

  // Wall time from each arrival until every honest B server holds the
  // transfer's result, checked after every delivery. One thread runs all
  // eight servers, so this is a transfer's latency while that thread also
  // serves the transfers that overlap it in virtual time.
  std::vector<Clock::time_point> arrived(ids.size());
  std::vector<bool> done(ids.size(), false);
  std::size_t next_arrival = 0;
  std::size_t first_open = 0;
  auto watch = [&] {
    while (next_arrival < ids.size() && at[next_arrival] <= sys->sim().now())
      arrived[next_arrival++] = Clock::now();
    for (std::size_t i = first_open; i < next_arrival; ++i) {
      if (done[i]) continue;
      done[i] = std::all_of(honest_b.begin(), honest_b.end(), [&](core::ServerRank r) {
        return sys->b_server(r).result(ids[i]).has_value();
      });
      if (done[i])
        out.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - arrived[i]).count());
    }
    while (first_open < next_arrival && done[first_open]) ++first_open;
    return first_open == ids.size();
  };

  const std::uint64_t ops0 = params.group_op_count();
  const Clock::time_point r0 = Clock::now();
  {
    Spans::Scope span(spans, "net.Simulator.run_until");
    (void)sys->sim().run_until(watch);
  }
  {
    // Returns at once when every transfer completed above; otherwise it
    // applies the program's own completion rule to what is left.
    Spans::Scope span(spans, "core.System.run_to_completion");
    (void)sys->run_to_completion();
  }
  {
    // Then let every timer the transfers armed run out (retransmissions
    // nobody cancels, backup coordinators that find the work done), so each
    // transfer is charged all the work it causes however the batch ends.
    Spans::Scope span(spans, "net.Simulator.run");
    (void)sys->sim().run();
  }
  out.run_s = seconds_since(r0);
  out.word_muls = (params.group_op_count() - ops0) * params.op_cost_weight();
  out.net = sys->sim().stats();
  out.cpu_a_s = sys->service_cpu_seconds(core::ServiceRole::kServiceA);
  out.cpu_b_s = sys->service_cpu_seconds(core::ServiceRole::kServiceB);
  out.attempted = ids.size();

  Spans::Scope check_span(spans, "check");
  const auto stored = stored_ciphertexts(sys->a_server(1).snapshot());
  if (!stored) report.violation("A server snapshot has an unknown layout");
  const Decrypt decrypt_b = [&](const elgamal::Ciphertext& c) { return sys->oracle_decrypt_b(c); };
  for (core::TransferId t : ids) {
    TransferExpect e;
    e.transfer = t;
    e.plaintext = sys->plaintext_of(t);
    if (checks.inject_fault) {
      e.plaintext = params.mul(e.plaintext, params.g());
      checks.inject_fault = false;
    }
    if (stored && stored->contains(t)) e.ea = stored->at(t);
    std::string missing;
    for (core::ServerRank r : honest_b) {
      e.results.push_back(sys->result(t, r));
      if (!e.results.back()) missing += " " + std::to_string(r);
    }
    if (check_transfer(e, params, decrypt_b, checks.first_components, report)) {
      ++out.completed;
    } else {
      report.note("transfer " + std::to_string(t) + " failed: no result at honest B rank(s)" +
                  missing);
    }
  }
  for (core::ServerRank r = 1; r <= 4; ++r) {
    if (sys->b_server(r).attack_successes() != 0)
      report.violation("B rank " + std::to_string(r) + " obtained a service signature on a "
                       "fabricated blind (attack_successes > 0)");
  }
  if (spec.reshare) {
    for (core::ServerRank r : honest_b) {
      if (sys->b_server(r).config_epoch() != 1)
        report.violation("B rank " + std::to_string(r) + " did not install the re-share");
    }
  }

  if (traced) {
    totals->add(registry);
    std::set<net::NodeId> honest_nodes;
    for (core::ServerRank r : honest_b) honest_nodes.insert(sys->b_node(r));
    // Virtual completion: when the last honest B server recorded the done.
    std::map<core::TransferId, std::map<net::NodeId, std::uint64_t>> done_at;
    std::set<core::TransferId> aborted;
    for (const obs::TraceEvent& ev : trace.events()) {
      if (ev.kind == obs::EventKind::kDoneRecorded && honest_nodes.contains(ev.node)) {
        done_at[ev.transfer].try_emplace(static_cast<net::NodeId>(ev.node), ev.ts);
      } else if (ev.kind == obs::EventKind::kEpochAbort) {
        aborted.insert(ev.transfer);
      }
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto& per_node = done_at[ids[i]];
      if (per_node.size() != honest_nodes.size()) continue;
      std::uint64_t last = 0;
      for (const auto& [node, ts] : per_node) last = std::max(last, ts);
      out.virtual_latency_ms.push_back(static_cast<double>(last - at[i]) / 1e3);
    }
    out.aborted_transfers = aborted.size();
  }
  return out;
}

// Runs batches 0, 1, 2, ... until `budget_s` has passed and at least
// spec.count_batches ran.
std::vector<BatchResult> run_segment(const SimSpec& spec, const Args& args, double budget_s,
                                     bool traced, CoreTotals* totals, Checks& checks,
                                     Report& report, Spans& spans) {
  Inputs inputs(args.seed);
  std::vector<BatchResult> out;
  const Clock::time_point start = Clock::now();
  for (std::size_t b = 0; b < spec.count_batches || seconds_since(start) < budget_s; ++b) {
    out.push_back(run_batch(spec, inputs.stream(args.workload + "/batch-" + std::to_string(b)),
                            traced, totals, checks, report, spans));
  }
  return out;
}

void count_attempts(const std::vector<BatchResult>& batches, Report& report) {
  for (const BatchResult& b : batches) {
    report.attempted += b.attempted;
    report.failed += b.attempted - b.completed;
  }
}

double median_throughput(const std::vector<BatchResult>& batches) {
  std::vector<double> tps;
  for (const BatchResult& b : batches) tps.push_back(static_cast<double>(b.completed) / b.run_s);
  return median(tps);
}

}  // namespace

void run_sim_workload(const Args& args, Report& report, Spans& spans) {
  const SimSpec spec = spec_for(args.workload, args.smoke);
  Checks checks;
  checks.inject_fault = args.inject_fault;

  if (!args.trace) {
    const std::vector<BatchResult> batches =
        run_segment(spec, args, args.seconds, false, nullptr, checks, report, spans);
    count_attempts(batches, report);
    std::vector<double> setup;
    std::vector<double> latency;
    double transfers = 0;
    double messages = 0;
    double bytes = 0;
    double word_muls = 0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      setup.push_back(batches[i].setup_s);
      latency.insert(latency.end(), batches[i].latency_ms.begin(), batches[i].latency_ms.end());
      if (i >= spec.count_batches) continue;
      transfers += static_cast<double>(batches[i].attempted);
      messages += static_cast<double>(batches[i].net.messages_sent);
      bytes += static_cast<double>(batches[i].net.bytes_sent);
      word_muls += static_cast<double>(batches[i].word_muls);
    }
    report.set("setup_s", median(setup), "s");
    report.set("transfers_per_s", median_throughput(batches), "1/s");
    report.set("latency_p50_ms", median(latency), "ms");
    report.note(latency_note(latency));
    report.set("wire_bytes_per_transfer", bytes / transfers, "bytes");
    report.set("messages_per_transfer", messages / transfers, "count");
    report.set("word_muls_per_transfer", word_muls / transfers, "count");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.note("batches " + std::to_string(batches.size()) + " x " +
                std::to_string(spec.transfers) + " transfers; counts over the first " +
                std::to_string(spec.count_batches));
    return;
  }

  // Traced run: the same batches twice, first untraced and then with the
  // program's trace recorder and metrics registry on, half the time each.
  const std::vector<BatchResult> plain =
      run_segment(spec, args, args.seconds / 2, false, nullptr, checks, report, spans);
  CoreTotals totals;
  Checks traced_checks;
  const std::vector<BatchResult> traced =
      run_segment(spec, args, args.seconds / 2, true, &totals, traced_checks, report, spans);
  count_attempts(plain, report);
  count_attempts(traced, report);

  double plain_transfers = 0;
  double cpu_a = 0;
  double cpu_b = 0;
  double sim_overhead_s = 0;
  for (const BatchResult& b : plain) {
    plain_transfers += static_cast<double>(b.attempted);
    cpu_a += b.cpu_a_s;
    cpu_b += b.cpu_b_s;
    sim_overhead_s += b.run_s - b.cpu_a_s - b.cpu_b_s;
  }
  double traced_transfers = 0;
  double aborted = 0;
  std::vector<double> vlat;
  for (const BatchResult& b : traced) {
    traced_transfers += static_cast<double>(b.attempted);
    aborted += static_cast<double>(b.aborted_transfers);
    vlat.insert(vlat.end(), b.virtual_latency_ms.begin(), b.virtual_latency_ms.end());
  }
  totals.report(report, traced_transfers,
                static_cast<double>(group::GroupParams::named(spec.params).op_cost_weight()));
  report.set("core.service_cpu_ms_per_transfer.a", cpu_a * 1e3 / plain_transfers, "ms");
  report.set("core.service_cpu_ms_per_transfer.b", cpu_b * 1e3 / plain_transfers, "ms");
  report.set("core.reconfig_transfers_aborted",
             spec.reshare ? aborted / static_cast<double>(traced.size()) : 0.0, "count");
  report.set("core.client.services_ms_p50", 0, "ms");
  report.set("core.client.retrieve_ms_p50", 0, "ms");
  report.set("net.sim_overhead_ms_per_transfer", sim_overhead_s * 1e3 / plain_transfers, "ms");
  report.set("net.virtual_latency_p50_ms", median(vlat), "ms");

  const double plain_tps = median_throughput(plain);
  const double traced_tps = median_throughput(traced);
  const double overhead = (plain_tps / traced_tps - 1.0) * 100.0;
  report.set("trace.overhead_pct", overhead, "%");
  char line[200];
  std::snprintf(line, sizeof line,
                "tracing overhead: %.2f%% (transfers_per_s %.3f untraced, %.3f traced)", overhead,
                plain_tps, traced_tps);
  report.note(line);

  run_layer_timings(args, report, spans);
}

}  // namespace perfbench
