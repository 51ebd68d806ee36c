// Shared plumbing of the perfbench program: command-line arguments, the
// metric report, the benchmark's own span recorder, seeded input generation
// and the correctness checks every workload applies to its results.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "elgamal/elgamal.hpp"
#include "group/params.hpp"
#include "mpz/random.hpp"

namespace perfbench {

namespace core = dblind::core;
namespace elgamal = dblind::elgamal;
namespace group = dblind::group;
namespace mpz = dblind::mpz;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Toy parameters and tiny batches: exercises every code path in seconds.
  bool smoke = false;
  // Where the traced run writes its span file (empty = do not write).
  std::string spans_out;
  // Corrupts the expected plaintext of the first transfer checked, so that a
  // run can show its correctness check catches a wrong result.
  bool inject_fault = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one run reports. `correct` speaks only of operations that did not
// fail; a failed transfer is counted in `failed` and never in any metric.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Human-readable lines printed before the JSON line (tails, sample counts).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  // Records a broken property of the method; the run then reports
  // correct=false with the reason in its notes.
  void violation(const std::string& what) {
    correct = false;
    notes.push_back("CORRECTNESS VIOLATION: " + what);
  }
};

// The benchmark's own spans, recorded around each call it makes into the
// program. Kept in memory and written out when the run ends. Disabled
// recorders make Scope a no-op, so untraced runs pay one branch per call.
class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double start_us = 0;
    double end_us = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Spans& s, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_ = 0;
    bool active_ = false;
  };

  // A span measured elsewhere (another thread), attached to no parent.
  void add(std::string name, Clock::time_point start, Clock::time_point end);

  // One JSON object per line: name, id, parent, start_us, end_us.
  void write_jsonl(const std::string& path) const;
  // Per span name: count, total and self time (total minus direct children).
  [[nodiscard]] std::vector<std::string> summary() const;

 private:
  [[nodiscard]] double at_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open spans (main thread only)
};

// Seeded inputs. Every workload derives everything it feeds the program from
// one --seed through named forks, so two runs with one seed see the same
// plaintexts, arrival schedule, loss pattern and re-share time.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : root_(seed) {}
  [[nodiscard]] mpz::Prng stream(const std::string& label) { return root_.fork(label); }

 private:
  mpz::Prng root_;
};

// A uniformly drawn non-identity message element.
[[nodiscard]] mpz::Bigint random_plaintext(const group::GroupParams& params, mpz::Prng& prng);
// Poisson arrival times (virtual µs), exponential gaps with the given mean.
[[nodiscard]] std::vector<std::uint64_t> poisson_arrivals(mpz::Prng& prng, std::size_t n,
                                                          double mean_gap_us);

// Ciphertexts an A server stores, read from its public durable snapshot
// (ProtocolServer::snapshot). std::nullopt when the snapshot layout is not
// the one this reader knows — the caller reports that as a violation rather
// than skipping the check.
[[nodiscard]] std::optional<std::map<core::TransferId, elgamal::Ciphertext>> stored_ciphertexts(
    const std::vector<std::uint8_t>& snapshot);

// The properties each transfer's result must have, whatever the run:
// every honest B server holds a result, the results are byte-identical
// across those servers, the result decrypts under B's key to the generated
// plaintext, and its first component differs from that of E_A(m) and from
// every other transfer's.
struct TransferExpect {
  core::TransferId transfer = 0;
  mpz::Bigint plaintext;
  std::optional<elgamal::Ciphertext> ea;          // E_A(m) as A stored it
  std::vector<std::optional<elgamal::Ciphertext>> results;  // per honest B server
};
using Decrypt = std::function<mpz::Bigint(const elgamal::Ciphertext&)>;
// Returns true when the transfer completed (every honest B server holds a
// result); violations of the method's properties go to `report`.
// `first_components` collects the encoded first component of every result
// seen so far in the run, to catch two transfers sharing one.
bool check_transfer(const TransferExpect& t, const group::GroupParams& params,
                    const Decrypt& decrypt_b,
                    std::map<std::vector<std::uint8_t>, core::TransferId>& first_components,
                    Report& report);

// Nearest-rank percentile, q in (0, 1]. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
// Middle value (mean of the two middle values for an even count).
[[nodiscard]] double median(std::vector<double> v);

// "latency: p50 X ms, pNN Y ms over N transfers", where pNN is the highest
// percentile with at least ten samples beyond it (none below 40 samples).
[[nodiscard]] std::string latency_note(const std::vector<double>& ms);

// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
